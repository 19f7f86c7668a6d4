package attr

import (
	"fmt"
	"slices"
	"sort"
)

// Set is an immutable, sorted, duplicate-free collection of attribute
// IDs. The zero value is the empty set. Sets are value types: all
// operations return new sets and never mutate their receivers, so a Set
// may be shared freely across goroutines once built.
type Set struct {
	ids []ID
}

// NewSet builds a Set from ids, sorting and deduplicating.
func NewSet(ids ...ID) Set {
	if len(ids) == 0 {
		return Set{}
	}
	cp := append([]ID(nil), ids...)
	slices.Sort(cp)
	out := cp[:1]
	for _, id := range cp[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return Set{ids: out}
}

// FromSorted adopts ids that are already sorted and unique. It panics
// otherwise; use NewSet for unsanitized input. The slice is adopted
// without copying and must not be mutated afterwards.
func FromSorted(ids []ID) Set {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic(fmt.Sprintf("attr: FromSorted input not strictly increasing at %d", i))
		}
	}
	return Set{ids: ids}
}

// Len returns the cardinality of s.
func (s Set) Len() int { return len(s.ids) }

// IsEmpty reports whether s has no elements.
func (s Set) IsEmpty() bool { return len(s.ids) == 0 }

// IDs returns the sorted attribute IDs. The returned slice is shared;
// callers must not modify it.
func (s Set) IDs() []ID { return s.ids }

// Contains reports whether id is in s.
func (s Set) Contains(id ID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= id })
	return i < len(s.ids) && s.ids[i] == id
}

// SubsetOf reports whether every element of s is in t. This is the
// paper's matching predicate: a query matches a data item when the
// query's attributes are a subset of the item's.
func (s Set) SubsetOf(t Set) bool {
	if len(s.ids) > len(t.ids) {
		return false
	}
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] == t.ids[j]:
			i++
			j++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			return false
		}
	}
	return i == len(s.ids)
}

// Equal reports whether s and t contain the same IDs.
func (s Set) Equal(t Set) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	out := make([]ID, 0, len(s.ids)+len(t.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		case s.ids[i] > t.ids[j]:
			out = append(out, t.ids[j])
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	out = append(out, t.ids[j:]...)
	return Set{ids: out}
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	out := make([]ID, 0)
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			out = append(out, s.ids[i])
			i++
			j++
		}
	}
	return Set{ids: out}
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	out := make([]ID, 0, len(s.ids))
	i, j := 0, 0
	for i < len(s.ids) && j < len(t.ids) {
		switch {
		case s.ids[i] < t.ids[j]:
			out = append(out, s.ids[i])
			i++
		case s.ids[i] > t.ids[j]:
			j++
		default:
			i++
			j++
		}
	}
	out = append(out, s.ids[i:]...)
	return Set{ids: out}
}

// AppendKey appends the canonical key of s (the same bytes Key
// returns) to dst and returns the extended slice. Callers that only
// need a transient key for a map lookup use it with a reused scratch
// buffer to avoid allocating a string per probe.
func (s Set) AppendKey(dst []byte) []byte {
	for i, id := range s.ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendInt(dst, int64(id))
	}
	return dst
}

func appendInt(dst []byte, v int64) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// Key returns a canonical string usable as a map key identifying the
// set's contents (e.g. for query deduplication). It is AppendKey's
// bytes — a single format shared by both paths, so interning and
// lookup can never diverge.
func (s Set) Key() string {
	if len(s.ids) == 0 {
		return ""
	}
	return string(s.AppendKey(nil))
}

// String renders the set for debugging as {1,5,9}.
func (s Set) String() string {
	return "{" + s.Key() + "}"
}

// Names resolves the set against a vocabulary, for human-readable output.
func (s Set) Names(v *Vocab) []string {
	out := make([]string, len(s.ids))
	for i, id := range s.ids {
		out[i] = v.Name(id)
	}
	return out
}
