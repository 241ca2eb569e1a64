//! Interned, copy-on-write attribute values.
//!
//! CERTA's cost is dominated by scoring perturbed copies `ψ(u, w, A)` (§3),
//! and every perturbed copy used to materialize fresh `String`s that each
//! matcher then re-cleaned and re-tokenized from scratch. [`AttrValue`] is the
//! fix: a **hash-consed handle** to an immutable value. Interning guarantees
//! that two equal strings share one allocation, so:
//!
//! * cloning a value (and therefore perturbing a record) is a reference-count
//!   bump — zero string allocation;
//! * the normalized ([`crate::tokens::clean`]) form, whitespace token spans,
//!   and FxHash content hash are computed **once per distinct string** and
//!   cached on the shared allocation;
//! * every distinct value carries a stable [`ValueId`], which downstream
//!   layers (the `certa-models` featurizer memo) use as a compact memoization
//!   key for per-value and per-value-pair feature artifacts;
//! * the §3.3 augmentation variants of a value ([`AttrValue::drop_first_k`],
//!   [`AttrValue::drop_last_k`]) are interned the first time each is asked
//!   for and cached on the value, so explaining the same records again
//!   re-uses handles instead of rebuilding and re-interning strings;
//! * every distinct token carries a [`TokenId`] from a second interner, and
//!   a value caches its cleaned tokens' ids ([`AttrValue::clean_token_ids`])
//!   on the first request, so token sets count on integers instead of
//!   hashing token strings.
//!
//! # `ValueId` stability rules
//!
//! * Ids are **process-local**: they are dense `u32`s handed out in
//!   first-intern order by a global interner. Never persist them, never
//!   compare them across processes — use [`AttrValue::content_hash`] (a pure
//!   function of the string content) for anything that outlives the process.
//! * Within one process, `a.id() == b.id()` **iff** `a.as_str() == b.as_str()`.
//!   Ids are never reused and interned values are never freed, so a memo
//!   entry keyed by `ValueId` stays valid for the process lifetime.
//! * The interner grows monotonically. Its population is bounded by the
//!   distinct attribute strings ever constructed (dataset values plus the
//!   augmentation variants actually requested — variants are interned
//!   lazily, one `(k, end)` pair at a time); perturbation itself creates
//!   **no** new values — ψ only re-combines existing handles. Services that
//!   intern **untrusted** strings (e.g. `certa-serve` accepting inline
//!   records) should treat the interner as append-only state: per-request
//!   growth is bounded by the request-size limit, but adversarial traffic
//!   with ever-novel values accumulates — front such deployments with
//!   quotas, exactly as for the equally append-only score cache.
//!
//! # `TokenId` rules
//!
//! * [`TokenId`]s follow the `ValueId` rules above: process-local dense
//!   `u32`s in first-intern order, `a == b` **iff** the token texts are
//!   equal, never reused, never freed. Never persist them.
//! * They are used only for counts and order-free sums (set sizes,
//!   intersections, Ditto's ±1/±0.5 bucket sums): an id's value depends on
//!   which thread interned first, so it must never decide an output order.
//! * A value's ids are interned on the first [`AttrValue::clean_token_ids`]
//!   request, never while a value-interner shard is locked; the token
//!   interner takes one shard lock of its own per lookup.
//!
//! # Determinism contract
//!
//! Everything cached here ([`AttrValue::cleaned`], token spans,
//! [`AttrValue::content_hash`]) is a pure function of the string content, so
//! records built from raw strings and records assembled from interned handles
//! are indistinguishable: equal `Display`/`Debug` output, equal `Hash`, equal
//! serde encoding, and equal [`crate::Record::content_hash`]. Property tests
//! in `tests/value_props.rs` pin this.

use crate::hash::{fx_hash_one, FxHashMap, FxHashSet};
use crate::tokens;
use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Stable identifier of one distinct interned string within this process.
///
/// See the module docs for the stability rules (process-local, dense,
/// first-intern order, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Stable identifier of one distinct token within this process.
///
/// See the module docs for its rules (those of [`ValueId`], and only ever
/// counted or summed order-free, which is why it has no ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TokenId(pub u32);

impl TokenId {
    /// The id of `token`'s text, assigned on its first intern. A known
    /// token is looked up by `&str`, with no allocation.
    pub fn intern(token: &str) -> TokenId {
        let interner = token_interner();
        let mut ids = interner.lock(fx_hash_one(token));
        if let Some(&id) = ids.get(token) {
            return id;
        }
        let id = TokenId(interner.next_id());
        ids.insert(token.into(), id);
        id
    }
}

/// Byte span `[start, end)` of one token inside its owning string.
type Span = (u32, u32);

/// The shared, immutable payload behind one interned value.
struct ValueData {
    id: ValueId,
    raw: Box<str>,
    /// FxHash of the raw string content (id-independent, process-portable).
    content_hash: u64,
    /// True when the value is blank after trimming (the `NaN` cells).
    missing: bool,
    /// Whitespace token spans into `raw`.
    raw_tokens: Box<[Span]>,
    /// [`tokens::clean`]-normalized form (lowercased, punctuation folded).
    cleaned: Box<str>,
    /// Whitespace token spans into `cleaned`.
    clean_tokens: Box<[Span]>,
    /// Interned ids of `clean_tokens`, filled on the first request.
    clean_token_ids: OnceLock<Box<[TokenId]>>,
    /// §3.3 token-drop variants, one slot per `(k, end)` for
    /// `1 <= k < token count`, at `2 * (k - 1) + end`. The slot array
    /// (16 bytes a slot) is allocated on the first request, so only values
    /// augmentation touches pay for it, and each slot is interned on its
    /// own.
    variants: OnceLock<Box<[OnceLock<AttrValue>]>>,
}

fn token_spans(s: &str) -> Box<[Span]> {
    let base = s.as_ptr() as usize;
    s.split_whitespace()
        .map(|tok| {
            let start = tok.as_ptr() as usize - base;
            (start as u32, (start + tok.len()) as u32)
        })
        .collect()
}

impl ValueData {
    fn build(id: ValueId, raw: Box<str>) -> ValueData {
        assert!(
            raw.len() <= u32::MAX as usize,
            "attribute value too large to intern"
        );
        let content_hash = fx_hash_one(&*raw);
        let missing = raw.trim().is_empty();
        let raw_tokens = token_spans(&raw);
        let cleaned: Box<str> = tokens::clean(&raw).into_boxed_str();
        let clean_tokens = token_spans(&cleaned);
        ValueData {
            id,
            raw,
            content_hash,
            missing,
            raw_tokens,
            clean_tokens,
            cleaned,
            clean_token_ids: OnceLock::new(),
            variants: OnceLock::new(),
        }
    }
}

/// A cheap-to-clone, hash-consed attribute value.
///
/// `AttrValue` dereferences to `&str`, compares/hashes like its string
/// content, and serializes as a plain string — it is a drop-in replacement
/// for `String` in the [`crate::Record`] data model, with O(1) clone and
/// cached derived forms. See the module docs for the interning contract.
#[derive(Clone)]
pub struct AttrValue(Arc<ValueData>);

/// Number of independent shards per interner (power of two; shard
/// selection is a mask over the content hash, mirroring the score-cache
/// sharding).
const INTERN_SHARDS: usize = 16;

/// Interner entry: hashes and compares as its string content so the shard
/// sets support allocation-free `&str` lookups via `Borrow<str>`.
struct Entry(AttrValue);

impl Borrow<str> for Entry {
    fn borrow(&self) -> &str {
        self.0.as_str()
    }
}

impl Hash for Entry {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.as_str().hash(state);
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Entry) -> bool {
        self.0.as_str() == other.0.as_str()
    }
}

impl Eq for Entry {}

/// A global append-only interner: string content spread over shards `S`
/// by its hash, and one counter handing out dense ids in first-intern
/// order.
struct Interner<S> {
    shards: Vec<Mutex<S>>,
    next_id: AtomicU32,
}

impl<S: Default> Interner<S> {
    fn new() -> Self {
        Interner {
            shards: (0..INTERN_SHARDS).map(|_| Mutex::default()).collect(),
            next_id: AtomicU32::new(0),
        }
    }

    /// Lock the shard that holds content hashing to `content_hash`.
    fn lock(&self, content_hash: u64) -> MutexGuard<'_, S> {
        self.shards[(content_hash as usize) & (INTERN_SHARDS - 1)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The next id (the caller holds the shard lock and has established
    /// the miss).
    fn next_id(&self) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        assert!(id < u32::MAX, "interner exhausted its id space");
        id
    }
}

/// The value interner.
fn interner() -> &'static Interner<FxHashSet<Entry>> {
    static INTERNER: OnceLock<Interner<FxHashSet<Entry>>> = OnceLock::new();
    INTERNER.get_or_init(Interner::new)
}

/// The token interner: token text → [`TokenId`].
fn token_interner() -> &'static Interner<FxHashMap<Box<str>, TokenId>> {
    static TOKENS: OnceLock<Interner<FxHashMap<Box<str>, TokenId>>> = OnceLock::new();
    TOKENS.get_or_init(Interner::new)
}

/// Allocate the next id and publish a freshly built value into `set` (the
/// caller holds the shard lock and has already established the miss).
fn publish(set: &mut FxHashSet<Entry>, raw: Box<str>) -> AttrValue {
    let id = ValueId(interner().next_id());
    let value = AttrValue(Arc::new(ValueData::build(id, raw)));
    set.insert(Entry(value.clone()));
    value
}

fn intern_owned(s: String) -> AttrValue {
    let mut set = interner().lock(fx_hash_one(s.as_str()));
    if let Some(entry) = set.get(s.as_str()) {
        return entry.0.clone();
    }
    // Miss: move the caller's allocation straight into the interner.
    publish(&mut set, s.into_boxed_str())
}

impl AttrValue {
    /// Intern a string, returning the canonical shared handle for its
    /// content. Two calls with equal content return clones of one `Arc`.
    pub fn intern(s: &str) -> AttrValue {
        let mut set = interner().lock(fx_hash_one(s));
        if let Some(entry) = set.get(s) {
            return entry.0.clone();
        }
        publish(&mut set, s.into())
    }

    /// Number of distinct values interned in this process (diagnostic; the
    /// interner never shrinks).
    pub fn interned_count() -> usize {
        interner()
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Snapshot of every value interned so far, in no particular order.
    ///
    /// This is the reverse-lookup path for process-local [`ValueId`]s: layers
    /// that keep `ValueId`-keyed state (the `certa-models` featurization
    /// memo) use it to translate ids back to portable string content before
    /// persisting — ids themselves must never leave the process (see the
    /// module docs). O(distinct values); takes each shard lock briefly.
    pub fn all_interned() -> Vec<AttrValue> {
        interner()
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .iter()
                    .map(|e| e.0.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The stable per-process id of this distinct string (see module docs).
    #[inline]
    pub fn id(&self) -> ValueId {
        self.0.id
    }

    /// The raw string content.
    #[inline]
    pub fn as_str(&self) -> &str {
        &self.0.raw
    }

    /// FxHash of the raw content — a pure content function (no id mixed in),
    /// cached at intern time. [`crate::Record::content_hash`] folds these.
    #[inline]
    pub fn content_hash(&self) -> u64 {
        self.0.content_hash
    }

    /// True when the value is blank after trimming (a `NaN` cell).
    #[inline]
    pub fn is_missing(&self) -> bool {
        self.0.missing
    }

    /// Whitespace tokens of the raw value, from cached spans (no allocation).
    pub fn tokens(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        let raw: &str = &self.0.raw;
        self.0
            .raw_tokens
            .iter()
            .map(move |&(a, b)| &raw[a as usize..b as usize])
    }

    /// Number of whitespace tokens in the raw value.
    #[inline]
    pub fn token_count(&self) -> usize {
        self.0.raw_tokens.len()
    }

    /// The [`tokens::clean`]-normalized form, computed once at intern time.
    #[inline]
    pub fn cleaned(&self) -> &str {
        &self.0.cleaned
    }

    /// Whitespace tokens of the cleaned form, from cached spans.
    pub fn clean_tokens(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        let cleaned: &str = &self.0.cleaned;
        self.0
            .clean_tokens
            .iter()
            .map(move |&(a, b)| &cleaned[a as usize..b as usize])
    }

    /// Number of whitespace tokens in the cleaned form.
    #[inline]
    pub fn clean_token_count(&self) -> usize {
        self.0.clean_tokens.len()
    }

    /// The [`TokenId`] of each of [`AttrValue::clean_tokens`], in order.
    /// Interned on the first request and then cached on this value, like
    /// its variants.
    pub fn clean_token_ids(&self) -> &[TokenId] {
        self.0
            .clean_token_ids
            .get_or_init(|| self.clean_tokens().map(TokenId::intern).collect())
    }

    /// True when two handles point at the same interned allocation (always
    /// the case for equal content produced through [`AttrValue::intern`]).
    pub fn ptr_eq(a: &AttrValue, b: &AttrValue) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// This value with its first `k` tokens dropped: the interned
    /// [`tokens::drop_first_k`], `None` under the same bounds. Built and
    /// interned on the first request for this `k`, then served from a
    /// cache on this value.
    pub fn drop_first_k(&self, k: usize) -> Option<&AttrValue> {
        self.variant(k, 0, tokens::drop_first_k)
    }

    /// This value with its last `k` tokens dropped: the interned
    /// [`tokens::drop_last_k`], cached like [`AttrValue::drop_first_k`].
    pub fn drop_last_k(&self, k: usize) -> Option<&AttrValue> {
        self.variant(k, 1, tokens::drop_last_k)
    }

    fn variant(
        &self,
        k: usize,
        end: usize,
        drop: fn(&str, usize) -> Option<String>,
    ) -> Option<&AttrValue> {
        let n = self.token_count();
        if k == 0 || k >= n {
            return None;
        }
        let slots = self
            .0
            .variants
            .get_or_init(|| (0..2 * (n - 1)).map(|_| OnceLock::new()).collect());
        let slot = &slots[2 * (k - 1) + end];
        if let Some(v) = slot.get() {
            return Some(v);
        }
        // Racing first requests may each build the string; interning makes
        // them agree on one handle, and the slot keeps the first stored.
        let v = AttrValue::from(drop(self.as_str(), k)?);
        Some(slot.get_or_init(|| v))
    }
}

impl Deref for AttrValue {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for AttrValue {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for AttrValue {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for AttrValue {
    /// Debug-transparent: prints like the `String` it replaces, so record
    /// debug output is unchanged by the interning refactor.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Hash for AttrValue {
    /// Hashes exactly like `str`/`String`, upholding the `Borrow<str>`
    /// contract (an `AttrValue` key is interchangeable with a `&str` lookup).
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl PartialEq for AttrValue {
    fn eq(&self, other: &AttrValue) -> bool {
        // Hash-consing makes pointer identity the common fast path.
        Arc::ptr_eq(&self.0, &other.0) || self.as_str() == other.as_str()
    }
}

impl Eq for AttrValue {}

impl PartialOrd for AttrValue {
    fn partial_cmp(&self, other: &AttrValue) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for AttrValue {
    fn cmp(&self, other: &AttrValue) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl PartialEq<str> for AttrValue {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for AttrValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for AttrValue {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<AttrValue> for str {
    fn eq(&self, other: &AttrValue) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<AttrValue> for &str {
    fn eq(&self, other: &AttrValue) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<AttrValue> for String {
    fn eq(&self, other: &AttrValue) -> bool {
        self.as_str() == other.as_str()
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::intern(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        intern_owned(s)
    }
}

impl From<&String> for AttrValue {
    fn from(s: &String) -> AttrValue {
        AttrValue::intern(s)
    }
}

impl From<&AttrValue> for AttrValue {
    fn from(v: &AttrValue) -> AttrValue {
        v.clone()
    }
}

impl From<&AttrValue> for String {
    fn from(v: &AttrValue) -> String {
        v.as_str().to_string()
    }
}

impl From<AttrValue> for String {
    fn from(v: AttrValue) -> String {
        v.as_str().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_allocation() {
        let a = AttrValue::intern("sony bravia theater");
        let b = AttrValue::intern("sony bravia theater");
        assert!(AttrValue::ptr_eq(&a, &b));
        assert_eq!(a.id(), b.id());
        let c = AttrValue::intern("sony bravia cinema");
        assert!(!AttrValue::ptr_eq(&a, &c));
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn from_string_and_str_agree() {
        let a = AttrValue::from("black micro system".to_string());
        let b = AttrValue::intern("black micro system");
        assert!(AttrValue::ptr_eq(&a, &b));
    }

    #[test]
    fn cached_forms_match_the_free_functions() {
        let v = AttrValue::intern("  Sony BRAVIA, DAV-IS50/B!  ");
        assert_eq!(v.cleaned(), tokens::clean(v.as_str()));
        assert_eq!(
            v.tokens().collect::<Vec<_>>(),
            v.as_str().split_whitespace().collect::<Vec<_>>()
        );
        assert_eq!(
            v.clean_tokens().collect::<Vec<_>>(),
            v.cleaned().split_whitespace().collect::<Vec<_>>()
        );
        assert_eq!(v.token_count(), 3);
        assert_eq!(v.clean_token_count(), 5);
        assert_eq!(v.content_hash(), fx_hash_one(v.as_str()));
    }

    #[test]
    fn missing_flag_matches_trim() {
        assert!(AttrValue::intern("").is_missing());
        assert!(AttrValue::intern("   ").is_missing());
        assert!(!AttrValue::intern("x").is_missing());
    }

    #[test]
    fn compares_and_displays_like_a_string() {
        let v = AttrValue::intern("sony tv");
        assert_eq!(v, "sony tv");
        assert_eq!(v, "sony tv".to_string());
        assert_eq!("sony tv", v);
        assert_eq!(v.to_string(), "sony tv");
        assert_eq!(format!("{v:?}"), "\"sony tv\"");
        assert!(v.contains("tv"), "str methods available through Deref");
    }

    #[test]
    fn hashes_like_str_for_borrow_contract() {
        let v = AttrValue::intern("davis50b");
        assert_eq!(fx_hash_one(&v), fx_hash_one(&"davis50b".to_string()));
        let mut set: FxHashSet<AttrValue> = FxHashSet::default();
        set.insert(v);
        assert!(set.contains("davis50b"), "&str lookup through Borrow");
    }

    #[test]
    fn all_interned_contains_new_values_with_their_ids() {
        let v = AttrValue::intern("a value only the all_interned test makes 0xC1");
        let all = AttrValue::all_interned();
        let found = all
            .iter()
            .find(|x| x.as_str() == v.as_str())
            .expect("freshly interned value listed");
        assert_eq!(found.id(), v.id());
        assert!(AttrValue::ptr_eq(found, &v));
        // Concurrent tests may intern more values after the snapshot; the
        // monotone interner guarantees only `≤`.
        assert!(all.len() <= AttrValue::interned_count());
    }
}
