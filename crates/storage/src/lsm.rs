//! The LSM tree: a mutable in-memory component (memtable) over a stack of
//! immutable sorted components.
//!
//! Inserts and deletes go to the memtable; when it exceeds its budget it is
//! *sealed* (flushed) into an immutable component. Components are
//! `Arc`-shared, so a compactor can take a snapshot under a short lock,
//! merge the snapshot entirely outside the lock ([`merge_components`] works
//! by reference and clones only the surviving entries, once), and swap the
//! result back in with [`LsmTree::install_merged`] — this is how
//! [`crate::partition::DatasetPartition`] keeps merges off the insert path,
//! mirroring AsterixDB's asynchronous LSM flush/merge. When
//! [`LsmConfig::defer_merge`] is unset the tree instead merges inline once
//! the component count exceeds the threshold (the simplest of AsterixDB's
//! merge policies, the "constant" policy), which keeps a standalone tree
//! self-contained.
//!
//! Point reads consult the memtable first, then components newest-to-oldest;
//! scans, counts and merges run one k-way merge over all of them; deletes
//! are tombstones that shadow older versions until a merge discards them. Values are `Arc`-shared with the caller: an insert through
//! [`LsmTree::put_shared`] stores the caller's `Arc` directly — no deep
//! clone of the record on the hot path.
//!
//! # Compacted component storage
//!
//! Sealing (and merging) additionally builds a **storage image** for the
//! component — the disk-equivalent byte layout. A single-pass schema
//! inferencer ([`asterix_adm::schema`]) runs over the sealed records; if the
//! component's schema churn stays under [`LayoutConfig::churn_threshold`]
//! the image is a schema-headed columnar
//! [`CompactedBlock`](asterix_adm::compact::CompactedBlock) (field names and
//! types written once per component, values in per-field column strides),
//! otherwise the component falls back to the uncompacted
//! [`OpenBlock`](asterix_adm::compact::OpenBlock) layout. The vectorized
//! read path ([`LsmTree::for_each_live_ref`], [`LsmTree::get_field`])
//! serves single-field scans and point lookups from the column strides
//! without materializing whole records; full-record reads keep using the
//! `Arc`-shared entries. Merging re-infers the merged schema but never
//! drops a slot that every input component already agreed on.

use crate::KeyOrd;
use asterix_adm::compact::{CompactedBlock, OpenBlock};
use asterix_adm::schema::SchemaBuilder;
use asterix_adm::AdmValue;
use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
use std::ops::Bound;
use std::sync::Arc;

/// One version of a key.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    /// A live record, shared with whoever inserted/read it.
    Put(Arc<AdmValue>),
    /// A deletion marker.
    Tombstone,
}

/// A borrowed view of one live record during a vectorized scan.
///
/// Field access on a sealed record decodes one cell of the component's
/// storage image (a column-stride read for compacted components) instead of
/// walking the whole record; [`LiveRef::shared`] is the full-record escape
/// hatch, costing only an `Arc` bump.
#[derive(Debug)]
pub enum LiveRef<'a> {
    /// The record lives in the memtable.
    Mem(&'a Arc<AdmValue>),
    /// The record is sealed: component, storage-image row, shared value.
    Sealed(&'a Component, usize, &'a Arc<AdmValue>),
}

impl LiveRef<'_> {
    /// Lazily materialize one field (`None` = absent).
    pub fn field(&self, name: &str) -> Option<AdmValue> {
        match self {
            LiveRef::Mem(v) => v.field(name).cloned(),
            LiveRef::Sealed(c, row, _) => c.field_at(*row, name),
        }
    }

    /// The whole record, `Arc`-shared.
    pub fn shared(&self) -> &Arc<AdmValue> {
        match self {
            LiveRef::Mem(v) => v,
            LiveRef::Sealed(_, _, v) => v,
        }
    }
}

/// The disk-equivalent byte image of a sealed component.
#[derive(Debug, Clone)]
pub enum ComponentStorage {
    /// Schema-inferred columnar layout (schema header + column strides +
    /// sparse residual).
    Compacted(CompactedBlock),
    /// Uncompacted fallback: self-describing binary records behind an
    /// offset table — used when schema churn defeats inference.
    Open(OpenBlock),
}

impl ComponentStorage {
    /// Byte size of the image.
    pub fn size_bytes(&self) -> usize {
        match self {
            ComponentStorage::Compacted(b) => b.size_bytes(),
            ComponentStorage::Open(b) => b.size_bytes(),
        }
    }

    /// Is this the schema-inferred compacted layout?
    pub fn is_compacted(&self) -> bool {
        matches!(self, ComponentStorage::Compacted(_))
    }

    fn field_at(&self, row: usize, name: &str) -> Option<AdmValue> {
        match self {
            ComponentStorage::Compacted(b) => b.field_value(row, name),
            ComponentStorage::Open(b) => b.field_value(row, name),
        }
    }
}

/// An immutable sorted run.
#[derive(Debug, Default)]
pub struct Component {
    entries: BTreeMap<KeyOrd, Entry>,
    /// Disk-equivalent image; row `i` holds the `i`-th live entry in key
    /// order. `None` only for hand-built components (tests).
    storage: Option<ComponentStorage>,
    /// Keys of live entries in key order — the row index of the image.
    put_keys: Vec<KeyOrd>,
}

impl Component {
    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No entries at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate the component's entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&KeyOrd, &Entry)> {
        self.entries.iter()
    }

    /// The component's storage image, if one was built.
    pub fn storage(&self) -> Option<&ComponentStorage> {
        self.storage.as_ref()
    }

    /// Byte size of the storage image (0 when none was built).
    pub fn storage_size_bytes(&self) -> usize {
        self.storage.as_ref().map_or(0, |s| s.size_bytes())
    }

    /// Number of live (non-tombstone) entries.
    pub fn live_records(&self) -> usize {
        if self.storage.is_some() {
            self.put_keys.len()
        } else {
            self.entries
                .values()
                .filter(|e| matches!(e, Entry::Put(_)))
                .count()
        }
    }

    /// Storage row of `key`, if it holds a live entry.
    fn row_of(&self, key: &KeyOrd) -> Option<usize> {
        self.put_keys.binary_search(key).ok()
    }

    /// Lazily decode one field of the `row`-th live entry from the storage
    /// image (one column stride for compacted components); falls back to
    /// the in-memory entry when no image exists.
    pub fn field_at(&self, row: usize, name: &str) -> Option<AdmValue> {
        match &self.storage {
            Some(s) => s.field_at(row, name),
            None => match self
                .entries
                .values()
                .filter_map(|e| match e {
                    Entry::Put(v) => Some(v),
                    Entry::Tombstone => None,
                })
                .nth(row)
            {
                Some(v) => v.field(name).cloned(),
                None => None,
            },
        }
    }

    /// Lazily decode one field of the live entry under `key`.
    pub fn field_at_key(&self, key: &KeyOrd, name: &str) -> Option<AdmValue> {
        if self.storage.is_some() {
            let row = self.row_of(key)?;
            return self.field_at(row, name);
        }
        match self.entries.get(key) {
            Some(Entry::Put(v)) => v.field(name).cloned(),
            _ => None,
        }
    }
}

/// Build a component from sealed entries: choose and encode the storage
/// image per `layout`. `stable_slots` (from a merge's input components)
/// are slotted even when the re-inferred stats alone would not qualify
/// them — merged components never drop a slot their inputs agreed on.
fn build_component(
    entries: BTreeMap<KeyOrd, Entry>,
    layout: &LayoutConfig,
    stable_slots: Option<&[String]>,
) -> Component {
    let puts: Vec<Arc<AdmValue>> = entries
        .values()
        .filter_map(|e| match e {
            Entry::Put(v) => Some(Arc::clone(v)),
            Entry::Tombstone => None,
        })
        .collect();
    let put_keys: Vec<KeyOrd> = entries
        .iter()
        .filter(|(_, e)| matches!(e, Entry::Put(_)))
        .map(|(k, _)| k.clone())
        .collect();
    let rows: Vec<&AdmValue> = puts.iter().map(|a| a.as_ref()).collect();
    let storage = if layout.compact {
        let mut builder = SchemaBuilder::new();
        for r in &rows {
            builder.observe(r);
        }
        let schema = builder.finish();
        let mut slots = schema.slot_fields(layout.min_slot_presence);
        if let Some(stable) = stable_slots {
            for s in stable {
                if !slots.contains(s) && schema.fields.iter().any(|f| &f.name == s) {
                    slots.push(s.clone());
                }
            }
        }
        if schema.churn(&slots) > layout.churn_threshold {
            ComponentStorage::Open(OpenBlock::encode(&rows))
        } else {
            ComponentStorage::Compacted(CompactedBlock::encode(&rows, &schema, &slots))
        }
    } else {
        ComponentStorage::Open(OpenBlock::encode(&rows))
    };
    Component {
        entries,
        storage: Some(storage),
        put_keys,
    }
}

/// Merge `inputs` (newest first, as [`LsmTree::components_snapshot`] returns
/// them) into a single component, discarding shadowed versions and dropping
/// tombstones. Works entirely by reference over the shared components: the
/// only clones are one key clone and one `Arc` bump per *surviving* entry.
///
/// Dropping tombstones is sound only when `inputs` end at the oldest
/// component of the tree — which a snapshot always does, and which
/// [`LsmTree::install_merged`] re-verifies before swapping the result in.
///
/// `spin_per_entry` busy-spins per surviving entry, modelling merge I/O cost
/// in capacity experiments (0 = free).
pub fn merge_components(inputs: &[Arc<Component>], spin_per_entry: u64) -> Component {
    merge_components_with(inputs, spin_per_entry, &LayoutConfig::default())
}

/// [`merge_components`] with an explicit storage-layout policy: the merged
/// component's schema is *re-inferred* over the surviving entries, but any
/// slot that every compacted input agreed on stays a slot (conforming
/// slots are never rewritten into the residual by a merge).
pub fn merge_components_with(
    inputs: &[Arc<Component>],
    spin_per_entry: u64,
    layout: &LayoutConfig,
) -> Component {
    // newest version of each key wins; the walk borrows, and each survivor
    // is cloned once (key clone + `Arc` bump)
    let mut entries = BTreeMap::new();
    walk_live(inputs.iter().map(|c| Run::sealed(c, None, None)), |k, r| {
        if spin_per_entry > 0 {
            let mut acc = 0u64;
            for i in 0..spin_per_entry {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            std::hint::black_box(acc);
        }
        entries.insert(k.clone(), Entry::Put(Arc::clone(r.shared())));
    });
    // Slot stability across the merge: the intersection of the inputs'
    // slot sets (only meaningful when every input carried a compacted
    // image — a fallback input has no slots to preserve).
    let stable: Option<Vec<String>> = inputs
        .iter()
        .map(|c| match c.storage() {
            Some(ComponentStorage::Compacted(b)) => Some(b.slot_names()),
            _ => None,
        })
        .try_fold(None::<Vec<String>>, |acc, names| {
            let names = names?;
            Some(Some(match acc {
                None => names,
                Some(acc) => acc.into_iter().filter(|n| names.contains(n)).collect(),
            }))
        })
        .flatten();
    build_component(entries, layout, stable.as_deref())
}

/// The key range `lo..=hi`, either end open when `None`.
fn key_range<'k>(
    lo: Option<&'k KeyOrd>,
    hi: Option<&'k KeyOrd>,
) -> (Bound<&'k KeyOrd>, Bound<&'k KeyOrd>) {
    (
        lo.map_or(Bound::Unbounded, Bound::Included),
        hi.map_or(Bound::Unbounded, Bound::Included),
    )
}

/// One sorted run of a live walk: the memtable or a sealed component,
/// positioned at the start of the walked key range.
struct Run<'a> {
    entries: Peekable<btree_map::Range<'a, KeyOrd, Entry>>,
    /// The component, `None` for the memtable.
    component: Option<&'a Component>,
    /// Storage-image row of the component's next live entry.
    row: usize,
}

impl<'a> Run<'a> {
    fn mem(
        memtable: &'a BTreeMap<KeyOrd, Entry>,
        lo: Option<&KeyOrd>,
        hi: Option<&KeyOrd>,
    ) -> Self {
        Run {
            entries: memtable.range(key_range(lo, hi)).peekable(),
            component: None,
            row: 0,
        }
    }

    fn sealed(c: &'a Component, lo: Option<&KeyOrd>, hi: Option<&KeyOrd>) -> Self {
        Run {
            entries: c.entries.range(key_range(lo, hi)).peekable(),
            component: Some(c),
            // live entries below the range still occupy image rows
            row: lo.map_or(0, |l| c.put_keys.partition_point(|k| k < l)),
        }
    }
}

/// The live walk: a k-way merge over sorted `runs`, newest first, calling
/// `f` with the newest version of every live key in key order. On equal
/// keys the newer run wins and the older versions are skipped; a winning
/// tombstone hides the key. Every run counts the live entries it passes,
/// so a [`LiveRef::Sealed`] addresses its row of the component's storage
/// image even when an older or shadowed run supplied the neighbours.
fn walk_live<'a>(
    runs: impl IntoIterator<Item = Run<'a>>,
    mut f: impl FnMut(&'a KeyOrd, LiveRef<'a>),
) {
    let mut runs: Vec<Run<'a>> = runs.into_iter().collect();
    loop {
        // the smallest head key; the first (newest) run holding it wins
        let mut head: Option<(usize, &'a KeyOrd)> = None;
        for (i, run) in runs.iter_mut().enumerate() {
            if let Some(&(k, _)) = run.entries.peek() {
                if head.is_none_or(|(_, min)| k < min) {
                    head = Some((i, k));
                }
            }
        }
        let Some((winner, key)) = head else { return };
        let mut live = None;
        // runs before the winner hold larger keys; only later ones can tie
        for (i, run) in runs.iter_mut().enumerate().skip(winner) {
            let Some((_, e)) = run.entries.next_if(|&(k, _)| k == key) else {
                continue;
            };
            if let Entry::Put(v) = e {
                if i == winner {
                    live = Some(match run.component {
                        None => LiveRef::Mem(v),
                        Some(c) => LiveRef::Sealed(c, run.row, v),
                    });
                }
                run.row += 1;
            }
        }
        if let Some(r) = live {
            f(key, r);
        }
    }
}

/// Storage-layout policy for sealed components.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Attempt the schema-inferred compacted layout at all. When unset,
    /// every component uses the uncompacted open layout.
    pub compact: bool,
    /// Fall back to the open layout when the fraction of field occurrences
    /// landing in the residual section would exceed this.
    pub churn_threshold: f64,
    /// A field earns a column slot only when present in at least this
    /// fraction of the component's records (sparser fields cost more in
    /// offsets than they save, and belong in the residual).
    pub min_slot_presence: f64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            compact: true,
            churn_threshold: 0.35,
            min_slot_presence: 0.5,
        }
    }
}

impl LayoutConfig {
    /// An always-open (uncompacted) layout — the pre-compaction behaviour,
    /// kept for comparisons and as the forced-fallback escape hatch.
    pub fn open() -> Self {
        LayoutConfig {
            compact: false,
            ..LayoutConfig::default()
        }
    }
}

/// Tuning knobs.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Flush the memtable after this many entries.
    pub memtable_budget: usize,
    /// Merge once more than this many components exist.
    pub max_components: usize,
    /// When set, a flush only *seals* the memtable into a component and
    /// never merges inline — an external compactor (the partition's
    /// background worker) is responsible for merging. When unset, exceeding
    /// `max_components` merges inline as part of the flush.
    pub defer_merge: bool,
    /// Storage layout for sealed/merged components.
    pub layout: LayoutConfig,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_budget: 4096,
            max_components: 4,
            defer_merge: false,
            layout: LayoutConfig::default(),
        }
    }
}

/// The LSM tree.
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    memtable: BTreeMap<KeyOrd, Entry>,
    /// newest first
    components: Vec<Arc<Component>>,
    flushes: u64,
    merges: u64,
    schema_inferred: u64,
    fallbacks: u64,
}

impl LsmTree {
    /// Empty tree.
    pub fn new(config: LsmConfig) -> Self {
        LsmTree {
            config,
            memtable: BTreeMap::new(),
            components: Vec::new(),
            flushes: 0,
            merges: 0,
            schema_inferred: 0,
            fallbacks: 0,
        }
    }

    /// Insert or replace a record under `key`.
    pub fn put(&mut self, key: AdmValue, value: AdmValue) {
        self.put_shared(key, Arc::new(value));
    }

    /// Insert or replace a record under `key`, sharing the caller's `Arc` —
    /// the hot-path insert: no deep clone of the record.
    pub fn put_shared(&mut self, key: AdmValue, value: Arc<AdmValue>) {
        self.memtable.insert(KeyOrd(key), Entry::Put(value));
        self.maybe_flush();
    }

    /// Delete `key` (tombstone).
    pub fn delete(&mut self, key: AdmValue) {
        self.memtable.insert(KeyOrd(key), Entry::Tombstone);
        self.maybe_flush();
    }

    fn lookup(&self, k: &KeyOrd) -> Option<&Entry> {
        if let Some(e) = self.memtable.get(k) {
            return Some(e);
        }
        for c in &self.components {
            if let Some(e) = c.entries.get(k) {
                return Some(e);
            }
        }
        None
    }

    /// Point lookup, sharing the stored value.
    pub fn get_shared(&self, key: &AdmValue) -> Option<Arc<AdmValue>> {
        match self.lookup(&KeyOrd(key.clone())) {
            Some(Entry::Put(v)) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    /// Point lookup (cloning the value out).
    pub fn get(&self, key: &AdmValue) -> Option<AdmValue> {
        self.get_shared(key).map(|v| (*v).clone())
    }

    /// Does `key` currently have a live record?
    pub fn contains(&self, key: &AdmValue) -> bool {
        matches!(self.lookup(&KeyOrd(key.clone())), Some(Entry::Put(_)))
    }

    /// Visit the newest version of every key in `[lo, hi]` (both optional),
    /// in key order, tombstones excluded — by reference, no cloning.
    pub fn for_each_live_in(
        &self,
        lo: Option<&AdmValue>,
        hi: Option<&AdmValue>,
        mut f: impl FnMut(&AdmValue, &AdmValue),
    ) {
        let lo = lo.map(|v| KeyOrd(v.clone()));
        let hi = hi.map(|v| KeyOrd(v.clone()));
        self.walk(lo.as_ref(), hi.as_ref(), |k, r| f(&k.0, r.shared()));
    }

    /// Visit every live record in key order — by reference, no cloning.
    pub fn for_each_live(&self, f: impl FnMut(&AdmValue, &AdmValue)) {
        self.for_each_live_in(None, None, f)
    }

    /// Visit the newest version of every live key as a [`LiveRef`] — the
    /// vectorized scan entry point. Sealed entries are addressed by their
    /// storage-image row, so per-field reads decode one column cell instead
    /// of touching the whole record.
    pub fn for_each_live_ref(&self, mut f: impl FnMut(&AdmValue, LiveRef<'_>)) {
        self.walk(None, None, |k, r| f(&k.0, r));
    }

    /// [`walk_live`] over `lo..=hi` of the memtable and the components,
    /// newest first.
    fn walk<'a>(
        &'a self,
        lo: Option<&KeyOrd>,
        hi: Option<&KeyOrd>,
        f: impl FnMut(&'a KeyOrd, LiveRef<'a>),
    ) {
        let sealed = self.components.iter().map(|c| Run::sealed(c, lo, hi));
        walk_live(
            std::iter::once(Run::mem(&self.memtable, lo, hi)).chain(sealed),
            f,
        );
    }

    /// Visit one field of every live record — single-field scans touch one
    /// column stride per compacted component. The value is `None` when the
    /// record lacks the field.
    pub fn for_each_live_field(&self, name: &str, mut f: impl FnMut(&AdmValue, Option<AdmValue>)) {
        self.for_each_live_ref(|k, r| f(k, r.field(name)));
    }

    /// Point lookup of a single field: resolves the key's component, then
    /// decodes only the requested field from its storage image.
    pub fn get_field(&self, key: &AdmValue, name: &str) -> Option<AdmValue> {
        let k = KeyOrd(key.clone());
        if let Some(e) = self.memtable.get(&k) {
            return match e {
                Entry::Put(v) => v.field(name).cloned(),
                Entry::Tombstone => None,
            };
        }
        for c in &self.components {
            if let Some(e) = c.entries.get(&k) {
                return match e {
                    Entry::Put(_) => c.field_at_key(&k, name),
                    Entry::Tombstone => None,
                };
            }
        }
        None
    }

    /// Total bytes of the components' storage images — the tree's
    /// disk-equivalent footprint (the memtable is not counted).
    pub fn storage_bytes(&self) -> usize {
        self.components.iter().map(|c| c.storage_size_bytes()).sum()
    }

    /// Live records across sealed components (memtable excluded) — the
    /// denominator for bytes-per-record accounting.
    pub fn component_live_records(&self) -> usize {
        self.components.iter().map(|c| c.live_records()).sum()
    }

    /// Lifetime count of components sealed/merged into the compacted layout.
    pub fn schema_inferred_components(&self) -> u64 {
        self.schema_inferred
    }

    /// Lifetime count of components that fell back to the open layout.
    pub fn fallback_components(&self) -> u64 {
        self.fallbacks
    }

    /// Range scan over live records, `lo..=hi` inclusive on both ends (pass
    /// `None` for open ends). Results are key-ordered; surviving entries are
    /// cloned exactly once.
    pub fn scan_range(
        &self,
        lo: Option<&AdmValue>,
        hi: Option<&AdmValue>,
    ) -> Vec<(AdmValue, AdmValue)> {
        let mut out = Vec::new();
        self.for_each_live_in(lo, hi, |k, v| out.push((k.clone(), v.clone())));
        out
    }

    /// All live records in key order.
    pub fn scan_all(&self) -> Vec<(AdmValue, AdmValue)> {
        self.scan_range(None, None)
    }

    /// Count of live records (full walk, but nothing is cloned).
    pub fn live_count(&self) -> usize {
        let mut n = 0;
        self.walk(None, None, |_, _| n += 1);
        n
    }

    /// Seal the memtable into an immutable component (no merge, ever) —
    /// the only mutation a hot-path insert can trigger in deferred mode.
    /// Sealing runs the single-pass schema inferencer and encodes the
    /// component's storage image (compacted, or open on churn fallback).
    pub fn seal(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.memtable);
        let component = build_component(entries, &self.config.layout, None);
        self.note_component(&component);
        self.components.insert(0, Arc::new(component));
        self.flushes += 1;
    }

    fn note_component(&mut self, c: &Component) {
        match c.storage() {
            Some(ComponentStorage::Compacted(_)) => self.schema_inferred += 1,
            Some(ComponentStorage::Open(_)) => self.fallbacks += 1,
            None => {}
        }
    }

    /// Force a memtable flush. In deferred-merge mode this only seals; in
    /// inline mode it also merges once the component count exceeds the
    /// threshold.
    pub fn flush(&mut self) {
        self.seal();
        if !self.config.defer_merge && self.needs_merge() {
            self.merge_all();
        }
    }

    /// Whether enough components accumulated that a merge is due.
    pub fn needs_merge(&self) -> bool {
        self.components.len() > self.config.max_components
    }

    /// The current component stack (newest first), `Arc`-shared: the input
    /// to an off-lock [`merge_components`] run.
    pub fn components_snapshot(&self) -> Vec<Arc<Component>> {
        self.components.clone()
    }

    /// Swap `merged` in for the `inputs` it was built from. The inputs must
    /// still be the *oldest* suffix of the component stack (pointer
    /// equality); components sealed while the merge ran stay in front.
    /// Returns `false` — leaving the tree untouched — if the stack changed
    /// incompatibly (e.g. another merge won, or recovery rebuilt the tree).
    pub fn install_merged(&mut self, inputs: &[Arc<Component>], merged: Arc<Component>) -> bool {
        if inputs.is_empty() || self.components.len() < inputs.len() {
            return false;
        }
        let tail_start = self.components.len() - inputs.len();
        let tail_matches = self.components[tail_start..]
            .iter()
            .zip(inputs)
            .all(|(a, b)| Arc::ptr_eq(a, b));
        if !tail_matches {
            return false;
        }
        self.note_component(merged.as_ref());
        self.components.truncate(tail_start);
        self.components.push(merged);
        self.merges += 1;
        true
    }

    /// Merge every component into one inline, discarding shadowed versions
    /// and dropping tombstones (all older versions are in the merge input).
    pub fn merge_all(&mut self) {
        let snapshot = self.components_snapshot();
        let merged = merge_components_with(&snapshot, 0, &self.config.layout);
        self.note_component(&merged);
        self.components = vec![Arc::new(merged)];
        self.merges += 1;
    }

    fn maybe_flush(&mut self) {
        if self.memtable.len() >= self.config.memtable_budget {
            self.flush();
        }
    }

    /// Number of immutable components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Number of entries currently in the memtable.
    pub fn memtable_len(&self) -> usize {
        self.memtable.len()
    }

    /// Lifetime flush count.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Lifetime merge count.
    pub fn merges(&self) -> u64 {
        self.merges
    }
}

impl Default for LsmTree {
    fn default() -> Self {
        LsmTree::new(LsmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> LsmTree {
        LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 2,
            defer_merge: false,
            layout: LayoutConfig::default(),
        })
    }

    fn k(i: i64) -> AdmValue {
        AdmValue::Int(i)
    }

    fn v(s: &str) -> AdmValue {
        AdmValue::string(s)
    }

    #[test]
    fn put_get_roundtrip() {
        let mut t = LsmTree::default();
        t.put(k(1), v("a"));
        t.put(k(2), v("b"));
        assert_eq!(t.get(&k(1)), Some(v("a")));
        assert_eq!(t.get(&k(2)), Some(v("b")));
        assert_eq!(t.get(&k(3)), None);
        assert!(t.contains(&k(1)));
    }

    #[test]
    fn put_shared_stores_the_callers_arc() {
        let mut t = LsmTree::default();
        let value = Arc::new(v("shared"));
        t.put_shared(k(1), Arc::clone(&value));
        let got = t.get_shared(&k(1)).unwrap();
        assert!(Arc::ptr_eq(&got, &value), "no deep clone on the hot path");
    }

    #[test]
    fn replace_takes_latest() {
        let mut t = small_tree();
        t.put(k(1), v("old"));
        // force old version into a component
        t.flush();
        t.put(k(1), v("new"));
        assert_eq!(t.get(&k(1)), Some(v("new")));
    }

    #[test]
    fn delete_shadows_older_components() {
        let mut t = small_tree();
        t.put(k(1), v("a"));
        t.flush();
        t.delete(k(1));
        assert_eq!(t.get(&k(1)), None);
        assert!(!t.contains(&k(1)));
        // even after the tombstone itself is flushed
        t.flush();
        assert_eq!(t.get(&k(1)), None);
    }

    #[test]
    fn automatic_flush_at_budget() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.flushes(), 1);
        assert_eq!(t.memtable_len(), 0);
    }

    #[test]
    fn merge_reclaims_tombstones() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        t.delete(k(0));
        t.delete(k(1));
        t.flush();
        t.put(k(9), v("y"));
        t.flush(); // exceeds max_components=2 → merge
        assert_eq!(t.component_count(), 1);
        assert!(t.merges() >= 1);
        let live = t.scan_all();
        let keys: Vec<i64> = live.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![2, 3, 9]);
    }

    #[test]
    fn deferred_mode_seals_without_merging() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..8 {
            t.put(k(i), v("x"));
        }
        // four seals, zero merges: the insert path never compacted
        assert_eq!(t.component_count(), 4);
        assert_eq!(t.merges(), 0);
        assert!(t.needs_merge());
        // an external compactor merges from a snapshot and installs
        let snap = t.components_snapshot();
        let merged = Arc::new(merge_components(&snap, 0));
        assert!(t.install_merged(&snap, merged));
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.live_count(), 8);
    }

    #[test]
    fn install_merged_keeps_components_sealed_during_the_merge() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..4 {
            t.put(k(i), v("old"));
        }
        let snap = t.components_snapshot();
        assert_eq!(snap.len(), 2);
        let merged = Arc::new(merge_components(&snap, 0));
        // a concurrent seal lands while the merge "runs"
        t.put(k(100), v("new"));
        t.put(k(101), v("new"));
        assert_eq!(t.component_count(), 3);
        assert!(t.install_merged(&snap, merged));
        // the newer component survived in front of the merged result
        assert_eq!(t.component_count(), 2);
        assert_eq!(t.live_count(), 6);
        assert_eq!(t.get(&k(100)), Some(v("new")));
        assert_eq!(t.get(&k(0)), Some(v("old")));
    }

    #[test]
    fn install_merged_refuses_a_stale_snapshot() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..4 {
            t.put(k(i), v("x"));
        }
        let snap = t.components_snapshot();
        let merged = Arc::new(merge_components(&snap, 0));
        // another merge won the race and replaced the tail
        t.merge_all();
        assert!(!t.install_merged(&snap, merged));
        assert_eq!(t.live_count(), 4);
        // empty input never installs
        assert!(!t.install_merged(&[], Arc::new(Component::default())));
    }

    #[test]
    fn merge_components_drops_shadowed_versions_and_tombstones() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 10,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        t.put(k(1), v("v1"));
        t.put(k(2), v("x"));
        t.delete(k(2));
        t.put(k(1), v("v2"));
        t.seal();
        let snap = t.components_snapshot();
        let merged = merge_components(&snap, 0);
        assert_eq!(merged.len(), 1, "tombstone dropped, one survivor");
        let survivors: Vec<_> = merged.iter().collect();
        assert_eq!(survivors[0].1, &Entry::Put(Arc::new(v("v2"))));
    }

    #[test]
    fn scan_range_is_inclusive_and_ordered() {
        let mut t = small_tree();
        for i in (0..10).rev() {
            t.put(k(i), v("x"));
        }
        let r = t.scan_range(Some(&k(3)), Some(&k(6)));
        let keys: Vec<i64> = r.iter().map(|(k, _)| k.as_int().unwrap()).collect();
        assert_eq!(keys, vec![3, 4, 5, 6]);
        // open ends
        assert_eq!(t.scan_range(None, Some(&k(1))).len(), 2);
        assert_eq!(t.scan_range(Some(&k(8)), None).len(), 2);
    }

    #[test]
    fn scan_sees_latest_version_across_components() {
        let mut t = small_tree();
        t.put(k(1), v("v1"));
        t.flush();
        t.put(k(1), v("v2"));
        t.flush();
        t.put(k(1), v("v3"));
        let all = t.scan_all();
        assert_eq!(all, vec![(k(1), v("v3"))]);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn for_each_live_walks_without_cloning() {
        let mut t = small_tree();
        t.put(k(2), v("b"));
        t.flush();
        t.put(k(1), v("a"));
        t.delete(k(2));
        let mut seen = Vec::new();
        t.for_each_live(|key, val| seen.push((key.clone(), val.clone())));
        assert_eq!(seen, vec![(k(1), v("a"))]);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut t = small_tree();
        t.flush();
        assert_eq!(t.component_count(), 0);
        assert_eq!(t.flushes(), 0);
    }

    #[test]
    fn string_keys_work() {
        let mut t = LsmTree::default();
        t.put(v("tweet-1"), v("payload"));
        assert_eq!(t.get(&v("tweet-1")), Some(v("payload")));
    }

    fn rec(i: i64) -> AdmValue {
        AdmValue::record(vec![
            ("id", k(i)),
            ("name", v(&format!("n{i}"))),
            ("score", AdmValue::Double(i as f64)),
        ])
    }

    #[test]
    fn sealing_records_builds_a_compacted_image() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), rec(i));
        }
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.schema_inferred_components(), 1);
        assert_eq!(t.fallback_components(), 0);
        assert!(t.storage_bytes() > 0);
        assert_eq!(t.component_live_records(), 4);
        let snap = t.components_snapshot();
        assert!(snap[0].storage().unwrap().is_compacted());
    }

    #[test]
    fn opaque_values_fall_back_to_the_open_layout() {
        let mut t = small_tree();
        for i in 0..4 {
            t.put(k(i), v("just a string"));
        }
        assert_eq!(t.schema_inferred_components(), 0);
        assert_eq!(t.fallback_components(), 1);
        let snap = t.components_snapshot();
        assert!(!snap[0].storage().unwrap().is_compacted());
        // reads still work through the open image
        assert_eq!(t.get(&k(2)), Some(v("just a string")));
    }

    #[test]
    fn compaction_disabled_always_uses_open_layout() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 2,
            defer_merge: false,
            layout: LayoutConfig::open(),
        });
        for i in 0..4 {
            t.put(k(i), rec(i));
        }
        assert_eq!(t.schema_inferred_components(), 0);
        assert_eq!(t.fallback_components(), 1);
    }

    #[test]
    fn get_field_and_live_field_scan_agree_with_full_reads() {
        let mut t = small_tree();
        for i in 0..10 {
            t.put(k(i), rec(i));
        }
        t.delete(k(3));
        t.put(k(4), rec(400)); // newer version shadows sealed one
        for i in 0..10 {
            let want = t.get(&k(i)).and_then(|r| r.field("name").cloned());
            assert_eq!(t.get_field(&k(i), "name"), want, "key {i}");
        }
        assert_eq!(t.get_field(&k(99), "name"), None);
        let mut scanned = Vec::new();
        t.for_each_live_field("name", |key, val| scanned.push((key.clone(), val)));
        let full: Vec<(AdmValue, Option<AdmValue>)> = t
            .scan_all()
            .into_iter()
            .map(|(key, r)| {
                let f = r.field("name").cloned();
                (key, f)
            })
            .collect();
        assert_eq!(scanned, full);
    }

    #[test]
    fn ranged_walk_addresses_image_rows() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 10,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..12 {
            t.put(k(i), rec(i));
        }
        t.delete(k(6));
        t.put(k(7), rec(700));
        let lo = KeyOrd(k(5));
        let mut seen = Vec::new();
        t.walk(Some(&lo), None, |key, r| {
            if let LiveRef::Sealed(..) = r {
                assert_eq!(r.field("name"), r.shared().field("name").cloned());
            }
            seen.push(key.0.as_int().unwrap());
        });
        assert_eq!(seen, vec![5, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn merge_preserves_slots_the_inputs_agreed_on() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 4,
            max_components: 10,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        // two compacted components over the same schema
        for i in 0..8 {
            t.put(k(i), rec(i));
        }
        let snap = t.components_snapshot();
        assert_eq!(snap.len(), 2);
        let input_slots: Vec<Vec<String>> = snap
            .iter()
            .map(|c| match c.storage().unwrap() {
                ComponentStorage::Compacted(b) => b.slot_names(),
                ComponentStorage::Open(_) => panic!("expected compacted inputs"),
            })
            .collect();
        let merged = merge_components_with(&snap, 0, &LayoutConfig::default());
        let merged_slots = match merged.storage().unwrap() {
            ComponentStorage::Compacted(b) => b.slot_names(),
            ComponentStorage::Open(_) => panic!("merge of compacted inputs stayed compacted"),
        };
        for slot in input_slots[0].iter().filter(|s| input_slots[1].contains(s)) {
            assert!(
                merged_slots.contains(slot),
                "slot {slot} dropped by the merge"
            );
        }
        assert_eq!(merged.live_records(), 8);
    }

    #[test]
    fn merged_image_serves_reads_after_install() {
        let mut t = LsmTree::new(LsmConfig {
            memtable_budget: 2,
            max_components: 1,
            defer_merge: true,
            layout: LayoutConfig::default(),
        });
        for i in 0..8 {
            t.put(k(i), rec(i));
        }
        let snap = t.components_snapshot();
        let merged = Arc::new(merge_components_with(&snap, 0, &LayoutConfig::default()));
        assert!(t.install_merged(&snap, merged));
        assert!(t.schema_inferred_components() >= snap.len() as u64);
        for i in 0..8 {
            assert_eq!(
                t.get_field(&k(i), "name"),
                Some(v(&format!("n{i}"))),
                "key {i}"
            );
        }
    }
}
