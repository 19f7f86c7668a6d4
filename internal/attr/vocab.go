// Package attr models the paper's generic data model: every data item
// is described by a set of attributes (keywords for text documents) and
// queries are sets of attributes. A query q matches an item d when q's
// attributes are a subset of d's attributes (§2).
//
// Attributes are interned into dense int32 IDs by a Vocab so that sets
// can be stored as sorted ID slices and compared cheaply.
package attr

import (
	"fmt"
	"maps"
)

// ID is a dense, vocabulary-local attribute identifier.
type ID int32

// Vocab interns attribute strings into dense IDs. The zero value is
// ready to use. Vocab is not safe for concurrent mutation.
//
// A vocabulary that many others start from is frozen and forked.
// Freeze makes it read-only, so any number of goroutines may read it
// and fork it: Intern still answers a known name and panics on an
// unseen one. Fork returns a writable vocabulary with the same names
// under the same IDs, and costs nothing up front: the fork shares the
// frozen name table and index until its first Intern of an unseen
// name, which copies the index. Forking never writes to the source, so
// a name interned into a fork shows neither in its source nor in a
// sibling fork.
type Vocab struct {
	byName map[string]ID
	names  []string
	// frozen refuses new names; shared says byName is a frozen
	// source's, to be copied before the first new name goes in.
	frozen, shared bool
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byName: make(map[string]ID)}
}

// NewVocabSized returns an empty vocabulary with room for n attributes,
// for callers that know about how many they are about to intern: the
// name table is not grown from empty one doubling at a time.
func NewVocabSized(n int) *Vocab {
	return &Vocab{byName: make(map[string]ID, n), names: make([]string, 0, n)}
}

// Intern returns the ID for name, assigning a fresh one on first use.
// It panics if name is new and the vocabulary is frozen.
func (v *Vocab) Intern(name string) ID {
	if id, ok := v.byName[name]; ok {
		return id
	}
	if v.frozen {
		panic(fmt.Sprintf("attr: Intern(%q) on a frozen vocabulary", name))
	}
	if v.shared {
		v.byName, v.shared = maps.Clone(v.byName), false
	}
	if v.byName == nil {
		v.byName = make(map[string]ID)
	}
	id := ID(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// Freeze makes v read-only (see Vocab). It cannot be undone.
func (v *Vocab) Freeze() { v.frozen = true }

// Fork returns a writable vocabulary that starts as a copy of v and
// shares v's tables until its first new name (see Vocab). It panics
// unless v is frozen: a later write to v would show through the fork.
func (v *Vocab) Fork() *Vocab {
	if !v.frozen {
		panic("attr: Fork of a vocabulary that is not frozen")
	}
	// The clipped name table makes the fork's first append reallocate.
	return &Vocab{byName: v.byName, names: v.Names(), shared: true}
}

// Lookup returns the ID for name and whether it is known.
func (v *Vocab) Lookup(name string) (ID, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the string for id. It panics on unknown IDs, which
// always indicates a programming error (IDs only come from Intern).
func (v *Vocab) Name(id ID) string {
	if int(id) < 0 || int(id) >= len(v.names) {
		panic(fmt.Sprintf("attr: unknown ID %d (vocab size %d)", id, len(v.names)))
	}
	return v.names[id]
}

// Names returns the interned names in ID order. The elements are never
// rewritten (the vocabulary is append-only), so the slice stays valid,
// as a prefix, across later Interns; it must be treated as read-only.
func (v *Vocab) Names() []string { return v.names[:len(v.names):len(v.names)] }

// Len returns the number of interned attributes.
func (v *Vocab) Len() int { return len(v.names) }

// InternAll interns every name and returns the IDs in order.
func (v *Vocab) InternAll(names []string) []ID {
	ids := make([]ID, len(names))
	for i, n := range names {
		ids[i] = v.Intern(n)
	}
	return ids
}
