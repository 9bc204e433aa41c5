//! Both durable formats open with the one header `venn_core::snapshot`
//! writes and checks, so they are fuzzed here once, side by side:
//! arbitrary bytes, every truncation and every single-bit flip of a real
//! checkpoint and a real journal. `unseal` must refuse each damaged
//! checkpoint with a typed error; `recover_journal` must return a typed
//! error or an intact prefix of the recorded lines. Neither may panic.
//!
//! The checkpoint and the journal come from one scripted serve session
//! over an in-memory filesystem: its `checkpoint` command publishes the
//! first, its WAL journal is the second.

use std::sync::OnceLock;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use venn_core::faultio::MemFs;
use venn_core::snapshot::unseal;
use venn_serve::{
    recover_journal, run_lines, shared_fs, JournalError, SchedSpec, ServeSession, SyncPolicy,
    WalWriter,
};
use venn_sim::SimConfig;
use venn_traces::Workload;

/// A small real checkpoint and the sealed journal of the session that
/// wrote it, with the journal's lines.
fn artifacts() -> &'static (Vec<u8>, Vec<u8>, Vec<String>) {
    static ARTIFACTS: OnceLock<(Vec<u8>, Vec<u8>, Vec<String>)> = OnceLock::new();
    ARTIFACTS.get_or_init(record)
}

fn record() -> (Vec<u8>, Vec<u8>, Vec<String>) {
    let config = SimConfig {
        population: 40,
        days: 1,
        seed: 5,
        ..SimConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let workload = Workload::default_scenario(2, &mut rng);
    let fs = shared_fs(MemFs::new());
    let mut session =
        ServeSession::with_fs(config, SchedSpec::named("venn", 5), &workload, fs.clone()).unwrap();
    let mut journal = Some(WalWriter::create(fs.clone(), "j.wal", SyncPolicy::Batch).unwrap());
    let script = [
        r#"{"cmd":"advance","ms":3600000}"#,
        r#"{"cmd":"submit","category":"general","rounds":2,"demand":5,"task_ms":60000}"#,
        r#"{"cmd":"advance","ms":600000}"#,
        r#"{"cmd":"checkpoint","path":"c.vsnp"}"#,
        r#"{"cmd":"quit"}"#,
    ];
    let mut out = Vec::new();
    run_lines(
        &mut session,
        script.iter().map(|l| Ok(l.to_string())),
        &mut out,
        &mut journal,
    )
    .unwrap();
    journal.as_mut().unwrap().seal().unwrap();
    let mut fs = fs.borrow_mut();
    let ckpt = fs.read("c.vsnp").unwrap();
    let wal = fs.read("j.wal").unwrap();
    let lines = recover_journal(&wal).unwrap().lines;
    assert_eq!(lines.len(), script.len(), "every command is journaled");
    (ckpt, wal, lines)
}

/// `recover_journal` on damaged bytes: a typed error, or lines that are
/// an intact prefix of `lines`.
fn journal_prefix_or_error(bytes: &[u8], lines: &[String]) {
    match recover_journal(bytes) {
        Ok(r) => assert_eq!(r.lines[..], lines[..r.lines.len()], "not a prefix"),
        Err(JournalError::Unrecognized | JournalError::BadVersion(_)) => {}
        Err(e) => panic!("recovery from memory failed with {e}"),
    }
}

#[test]
fn every_truncation_is_refused_or_a_prefix() {
    let (ckpt, wal, lines) = artifacts();
    assert!(unseal(ckpt).is_ok());
    for cut in 0..ckpt.len() {
        assert!(unseal(&ckpt[..cut]).is_err(), "checkpoint cut at {cut}");
    }
    for cut in 0..=wal.len() {
        journal_prefix_or_error(&wal[..cut], lines);
    }
}

proptest! {
    /// Random bytes, bare or behind either format's real header: never
    /// a panic, and random bytes past a header are no checkpoint.
    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in proptest::collection::vec(0u16..256, 0..96),
        framing in 0usize..3,
    ) {
        let (ckpt, wal, _) = artifacts();
        let mut input = match framing {
            0 => Vec::new(),
            1 => ckpt[..8].to_vec(),
            _ => wal[..8].to_vec(),
        };
        input.extend(bytes.iter().map(|&b| b as u8));
        prop_assert!(unseal(&input).is_err());
        let _ = recover_journal(&input);
    }

    /// One flipped bit anywhere: the checkpoint is refused, the journal
    /// recovers an intact prefix or is refused by its header.
    #[test]
    fn single_bit_flips_are_refused_or_a_prefix(pick in 0u64..u64::MAX) {
        let (ckpt, wal, lines) = artifacts();
        let mut bad = ckpt.clone();
        let bit = (pick % (8 * ckpt.len() as u64)) as usize;
        bad[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(unseal(&bad).is_err(), "checkpoint bit {bit} flipped");
        let mut bad = wal.clone();
        let bit = (pick % (8 * wal.len() as u64)) as usize;
        bad[bit / 8] ^= 1 << (bit % 8);
        journal_prefix_or_error(&bad, lines);
    }
}
