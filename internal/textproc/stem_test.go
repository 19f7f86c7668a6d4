package textproc

import (
	"strings"
	"testing"
)

// referenceStem is Stem as a chain of suffix tests, first match wins,
// the way its rule table reads.
func referenceStem(w string) string {
	n := len(w)
	switch {
	case n > 4 && strings.HasSuffix(w, "sses"):
		return w[:n-2]
	case n > 4 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 3 && strings.HasSuffix(w, "ss"):
		return w
	case n > 3 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return w[:n-1]
	case n > 5 && strings.HasSuffix(w, "ing"):
		return undouble(w[:n-3])
	case n > 4 && strings.HasSuffix(w, "ed"):
		return undouble(w[:n-2])
	case n > 4 && strings.HasSuffix(w, "ly"):
		return w[:n-2]
	}
	return w
}

func TestStemMatchesRuleTable(t *testing.T) {
	// Every string of up to 6 letters, the longest any rule asks for, over
	// the letters the rules look at plus one they do not. undouble also
	// looks at vowels: 'i', 'e' and 'u' are here.
	const letters = "sieungdlyx"
	var walk func(prefix []byte)
	walk = func(prefix []byte) {
		w := string(prefix)
		if got, want := Stem(w), referenceStem(w); got != want {
			t.Fatalf("Stem(%q) = %q, rule table gives %q", w, got, want)
		}
		if len(prefix) == 6 {
			return
		}
		for i := 0; i < len(letters); i++ {
			walk(append(prefix, letters[i]))
		}
	}
	walk(nil)
}
