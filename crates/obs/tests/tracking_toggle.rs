//! The allocation-tracking toggle, in a test binary of its own.
//!
//! `set_tracking(false)` switches counting off for the whole process.
//! Beside the library's unit tests, which run on parallel threads and
//! assert that their allocations are counted, it would freeze their
//! counters mid-test. This binary holds the only test that toggles; it
//! links `lacr-obs` and with it the crate's `#[global_allocator]`.

use lacr_obs::mem::{set_tracking, thread_mark, tracking};
use std::hint::black_box;

#[test]
fn tracking_toggle_freezes_the_event_counters() {
    black_box(Vec::<u8>::with_capacity(64)); // warm TLS
    set_tracking(false);
    let off = thread_mark();
    black_box(Vec::<u8>::with_capacity(1 << 12));
    let d = off.delta();
    set_tracking(true);
    assert_eq!(d.allocs, 0, "thread counter ticked while off: {d:?}");
    assert_eq!(d.alloc_bytes, 0);

    // Control: with tracking back on, one allocation ticks the thread
    // counter. The counting allocator is installed here, so the zeros
    // above are the toggle's doing.
    assert!(tracking());
    let on = thread_mark();
    black_box(Vec::<u8>::with_capacity(1 << 12));
    let d = on.delta();
    assert!(d.allocs >= 1, "thread counter did not tick while on: {d:?}");
    assert!(d.alloc_bytes >= 1 << 12, "{d:?}");
}
