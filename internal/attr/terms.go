package attr

// termFoldAt is the overlay size at which Grow folds the overlay into
// a new base map. Below it a vocabulary growth copies at most this many
// entries; at it, one growth in termFoldAt pays for a full rebuild, so
// the amortized cost per interned term stays O(vocabulary/termFoldAt).
const termFoldAt = 1024

// TermTable is an immutable name -> ID snapshot of an append-only
// vocabulary, the form a published read view carries: any number of
// goroutines may Lookup concurrently while a single writer derives
// successors with Grow. Successive tables share structure — the large
// base map outright, and the name list by prefix — so a vocabulary that
// grows by a few terms per join does not rebuild (or re-hash) the tens
// of thousands it already had. The zero value is an empty table.
type TermTable struct {
	// base covers the IDs interned up to the last fold; overlay the few
	// interned since. Both are read-only once the table is returned.
	base    map[string]ID
	overlay map[string]ID
	// names holds the covered names in ID order. A successor appends
	// into the same backing array beyond len(names), which no reader of
	// this table ever indexes.
	names []string
	// chain is shared by a table and its successors; only Grow touches
	// it, to notice that the backing array past len(names) is taken.
	chain *termChain
}

// termChain records how many names the longest table of a chain covers.
type termChain struct {
	n int
}

// NewTermTable builds a table over names, whose index is their ID. The
// elements are adopted, not copied: the caller must not modify them
// afterwards (appending to its own slice is fine).
func NewTermTable(names []string) *TermTable {
	names = names[:len(names):len(names)]
	t := &TermTable{base: make(map[string]ID, len(names)), names: names, chain: &termChain{n: len(names)}}
	for id, name := range names {
		t.base[name] = ID(id)
	}
	return t
}

// TermsOf wraps one plain name -> ID map as a table without a name
// list, for callers that resolve against a map they built themselves.
// The map must not change while the table is in use.
func TermsOf(m map[string]ID) TermTable { return TermTable{base: m} }

// Lookup returns the ID of name and whether the table knows it.
func (t *TermTable) Lookup(name string) (ID, bool) {
	if id, ok := t.base[name]; ok {
		return id, true
	}
	if t.overlay == nil {
		return 0, false
	}
	id, ok := t.overlay[name]
	return id, ok
}

// LookupBytes is Lookup for a name held as bytes, such as a slice of a
// request body; it does not allocate.
func (t *TermTable) LookupBytes(name []byte) (ID, bool) {
	if id, ok := t.base[string(name)]; ok {
		return id, true
	}
	if t.overlay == nil {
		return 0, false
	}
	id, ok := t.overlay[string(name)]
	return id, ok
}

// Len returns how many names the table covers.
func (t *TermTable) Len() int { return len(t.names) }

// Names returns the covered names in ID order. The slice is shared
// with successor tables and must be treated as read-only.
func (t *TermTable) Names() []string { return t.names[:len(t.names):len(t.names)] }

// Grow returns the table extended by added, which take the next IDs in
// order; with nothing added it returns t itself. t stays valid and
// unchanged for its readers. Calls along one chain of tables must be
// serialized by the caller (the publishing side's mutation lock);
// growing the same table twice forks the chain, which costs the second
// caller a copy of the name list but is otherwise correct.
func (t *TermTable) Grow(added []string) *TermTable {
	if len(added) == 0 {
		return t
	}
	names, chain := t.names, t.chain
	if chain == nil || chain.n != len(names) {
		names, chain = names[:len(names):len(names)], &termChain{}
	}
	names = append(names, added...)
	chain.n = len(names)
	next := &TermTable{base: t.base, names: names, chain: chain}
	if len(t.overlay)+len(added) >= termFoldAt {
		next.base = make(map[string]ID, len(names))
		for id, name := range names {
			next.base[name] = ID(id)
		}
		return next
	}
	next.overlay = make(map[string]ID, len(t.overlay)+len(added))
	for name, id := range t.overlay {
		next.overlay[name] = id
	}
	for i, name := range added {
		next.overlay[name] = ID(len(t.names) + i)
	}
	return next
}
