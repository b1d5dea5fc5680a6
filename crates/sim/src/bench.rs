//! Constants the end-to-end benchmark (`perfbench/`) shares with the
//! engine's callers.

/// Monte Carlo samples per trial for a packed-tally `estimate_gain`
/// (`Engine::with_packed_tally`). 32 words of 64 packed coins keep the
/// sampling error on `p_mechanism` near the exact kernel's own tie-credit
/// granularity. Drawing them is the largest layer of a packed draw: on
/// `gain-sparse-packed` (8-regular, n = 4096, one worker on a 2-core
/// x86-64 VM) the 32 coin vectors take ~43% of a draw's ~145 µs,
/// resolution ~18%, the mechanism draw ~12%, and the plane pack and the
/// 32 folds ~5% each.
pub const PACKED_SAMPLES: u32 = 32;
