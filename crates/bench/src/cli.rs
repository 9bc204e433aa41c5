//! The one command-line layer of every `venn-bench` binary: a flag
//! reader with typed values and name tables, the `[SEED]` positional,
//! `--help`, and one exit policy — a usage error prints one
//! `error:` line plus the usage on stderr and exits 2; a run-time
//! failure prints one `error:` line and exits 1.

use std::fmt::Display;
use std::path::Path;
use std::process::{exit, ExitCode};
use std::str::FromStr;

/// A binary's arguments, consumed front to back.
pub struct Cli {
    usage: String,
    /// The unread arguments, last one first.
    rest: Vec<String>,
}

impl Cli {
    /// Reads the process arguments. `synopsis` follows the program name
    /// in the usage text — the only copy of it.
    pub fn new(synopsis: &str) -> Cli {
        let mut argv = std::env::args();
        let path = argv.next().unwrap_or_default();
        let program = Path::new(&path).file_name().unwrap_or_default();
        let usage = format!("usage: {} {synopsis}", program.to_string_lossy());
        let mut rest: Vec<String> = argv.collect();
        rest.reverse();
        Cli {
            usage: usage.trim_end().to_string(),
            rest,
        }
    }

    /// Consumes the next argument if it is the subcommand `word`.
    pub fn take(&mut self, word: &str) -> bool {
        self.rest.last().is_some_and(|arg| arg == word) && self.rest.pop().is_some()
    }

    /// Hands every remaining argument to `each`, which pulls flag values
    /// through [`value`](Self::value) / [`choice`](Self::choice) and
    /// returns [`unknown`] for an argument it does not take. `--help`
    /// prints the usage and exits 0; an error is a usage error.
    pub fn parse(&mut self, mut each: impl FnMut(&mut Cli, &str) -> Result<(), String>) {
        while let Some(arg) = self.rest.pop() {
            if arg == "--help" || arg == "-h" {
                println!("{}", self.usage);
                exit(0);
            }
            if let Err(e) = each(self, &arg) {
                self.fail(e);
            }
        }
    }

    /// The value after `flag`, parsed as `T` — a `NonZero*` type rejects 0.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        parse(flag, &self.next_value(flag)?)
    }

    /// The value after `flag`, looked up by name in `table`; the error
    /// lists the valid names.
    pub fn choice<T: Copy>(&mut self, flag: &str, table: &[(&str, T)]) -> Result<T, String> {
        let raw = self.next_value(flag)?;
        let hit = table.iter().find(|(name, _)| *name == raw);
        hit.map(|&(_, value)| value).ok_or_else(|| {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            format!("{flag}: unknown value {raw:?} (valid: {})", names.join("|"))
        })
    }

    fn next_value(&mut self, flag: &str) -> Result<String, String> {
        self.rest
            .pop()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// Reports a usage error found after parsing (a rule spanning several
    /// flags, a configuration check): one `error:` line plus the usage,
    /// exit status 2.
    pub fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}\n\n{}", self.usage);
        exit(2)
    }
}

/// `raw` parsed as `T`, the error naming `what`.
pub fn parse<T: FromStr>(what: &str, raw: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse().map_err(|e| format!("{what} {raw:?}: {e}"))
}

/// The error for an argument a binary does not take.
pub fn unknown(arg: &str) -> String {
    format!("unknown argument {arg:?}")
}

/// `arg` as the optional `[SEED]` positional; a flag is [`unknown`].
pub fn seed(arg: &str) -> Result<u64, String> {
    if arg.starts_with('-') {
        return Err(unknown(arg));
    }
    parse("seed", arg)
}

/// Reports a run-time failure: one `error:` line, exit status 1.
pub fn failure(msg: impl Display) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    #[test]
    fn values_choices_and_positionals_name_what_is_wrong() {
        let args = ["serve", "7", "0", "b", "z"];
        let mut c = Cli {
            usage: String::new(),
            rest: args.iter().rev().map(|a| a.to_string()).collect(),
        };
        assert!(c.take("serve") && !c.take("serve"));
        assert_eq!(c.value::<u32>("--n"), Ok(7));
        let zero = c.value::<NonZeroUsize>("--n").unwrap_err();
        assert!(zero.starts_with("--n \"0\""), "{zero}");
        let table = [("a", 1), ("b", 2)];
        assert_eq!(c.choice("--k", &table), Ok(2));
        let miss = c.choice("--k", &table).unwrap_err();
        assert_eq!(miss, "--k: unknown value \"z\" (valid: a|b)");
        assert_eq!(c.value::<u32>("--m"), Err("--m needs a value".into()));
        assert_eq!(seed("12"), Ok(12));
        assert_eq!(seed("--bogus"), Err(unknown("--bogus")));
    }
}
