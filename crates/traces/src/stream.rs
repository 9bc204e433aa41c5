//! Per-device RNG stream splitting.
//!
//! The eager world draws every device's profile and sessions from one
//! sequential RNG, which forces O(population) work and memory before the
//! first event fires. The streamed world instead derives an independent
//! generator for each `(seed, purpose, device[, day])` tuple, so any
//! device's draws can be reproduced *on demand*, in any order, at any
//! time — a device materialized at hour 40 of the run gets byte-identical
//! state to one materialized at hour 2, because the stream is a pure
//! function of the key, never of touch order.
//!
//! The construction mirrors `venn-env`'s split streams (a salted
//! SplitMix/Murmur-style finalizer over the run seed) but uses distinct
//! salts, so environment dynamics and device generation can never collide
//! even under the same run seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt of the per-device capacity-profile stream.
const PROFILE_SALT: u64 = 0x9D3F_7A11_C0DE_D00D;
/// Salt of the per-(device, day) availability-session stream.
const SESSION_SALT: u64 = 0x51E5_510E_5EED_CAFE;

/// Murmur3-style 64-bit finalizer: full avalanche, so adjacent device
/// ids land in unrelated seed neighborhoods.
#[inline]
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    h
}

/// Derives a child seed from `(seed, salt, a, b)`. Each input is mixed in
/// through a full-avalanche round, so streams keyed by different tuples
/// are independent for all practical purposes.
#[inline]
pub(crate) fn split_seed(seed: u64, salt: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) ^ a) ^ b)
}

/// The capacity-profile generator of one device: a pure function of
/// `(seed, device)` — identical no matter when (or whether) any other
/// device was generated.
#[inline]
pub(crate) fn profile_rng(seed: u64, device: usize) -> StdRng {
    StdRng::seed_from_u64(split_seed(seed, PROFILE_SALT, device as u64, 0))
}

/// The availability-session generator of one device on one day. Keying by
/// `(device, day)` keeps regeneration O(sessions-in-day): a cursor that
/// resumes mid-horizon replays one day block, never the whole trace.
#[inline]
pub(crate) fn session_rng(seed: u64, device: usize, day: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(seed, SESSION_SALT, device as u64, day))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_pure_functions_of_their_key() {
        for device in [0usize, 1, 999_999] {
            let a: Vec<u64> = (0..8)
                .map({
                    let mut r = profile_rng(42, device);
                    move |_| r.gen()
                })
                .collect();
            let b: Vec<u64> = (0..8)
                .map({
                    let mut r = profile_rng(42, device);
                    move |_| r.gen()
                })
                .collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn distinct_keys_give_distinct_streams() {
        let draw = |mut r: StdRng| -> Vec<u64> { (0..4).map(|_| r.gen()).collect() };
        assert_ne!(draw(profile_rng(42, 0)), draw(profile_rng(42, 1)));
        assert_ne!(draw(profile_rng(42, 0)), draw(profile_rng(43, 0)));
        assert_ne!(draw(profile_rng(42, 7)), draw(session_rng(42, 7, 0)));
        assert_ne!(draw(session_rng(42, 7, 0)), draw(session_rng(42, 7, 1)));
    }

    #[test]
    fn adjacent_devices_are_uncorrelated_in_the_low_bits() {
        // A weak split (e.g. seed + device) would give neighboring devices
        // nearly identical first draws; the finalizer must not.
        let firsts: Vec<u64> = (0..64).map(|d| profile_rng(1, d).gen::<u64>()).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), firsts.len(), "collisions in first draws");
    }
}
