//! The interner's global count, in a test binary of its own.
//!
//! `AttrValue::interned_count` reads one process-wide counter, so a test
//! running beside this one that interns any value between its two reads
//! breaks the "re-intern adds nothing" equality. This binary holds no other
//! test, so nothing else interns while it runs.

use certa_core::AttrValue;

#[test]
fn interned_count_is_monotone() {
    let before = AttrValue::interned_count();
    let first = AttrValue::intern("a value that only this test interns 0xB0");
    assert!(AttrValue::interned_count() > before);
    let again = AttrValue::interned_count();
    let second = AttrValue::intern("a value that only this test interns 0xB0");
    assert_eq!(AttrValue::interned_count(), again, "re-intern adds nothing");
    assert!(
        AttrValue::ptr_eq(&first, &second),
        "re-intern returns the first handle"
    );
}
