//! `reset_peak`, in a test binary of its own.
//!
//! Resetting the high-water mark acts on the whole process, so beside
//! the library's unit tests, which allocate on parallel threads, the
//! peak it leaves could already have moved. This binary holds the only
//! test that resets it.

use lacr_obs::mem::{live_bytes, peak_bytes, raise_peak, reset_peak};
use std::hint::black_box;

#[test]
fn reset_peak_restarts_the_high_water_mark_at_live_bytes() {
    // A block freed before the reset lifts the mark above live bytes.
    black_box(Vec::<u8>::with_capacity(1 << 20));
    assert!(peak_bytes() >= live_bytes() + (1 << 20));

    let replaced = reset_peak();
    assert!(replaced >= 1 << 20, "returns the mark it replaced");
    assert_eq!(peak_bytes(), live_bytes(), "the mark restarts at live");

    // A later allocation raises it again, by at least its own size.
    let base = peak_bytes();
    let held = black_box(Vec::<u8>::with_capacity(1 << 16));
    assert!(peak_bytes() >= base + (1 << 16));
    drop(held);

    // Folding the replaced mark back restores the process peak.
    raise_peak(replaced);
    assert!(peak_bytes() >= replaced);
}
