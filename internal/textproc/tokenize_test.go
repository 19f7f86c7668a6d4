package textproc

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unicode"
)

// referenceTokenize is the tokenizer as it was before the ASCII fast
// path: a strings.Builder write per rune, a fresh string per token.
// AppendTokens must agree with it on every input.
func referenceTokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() >= 2 {
			out = append(out, b.String())
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

func checkTokens(t *testing.T, text string) {
	t.Helper()
	want := referenceTokenize(text)
	if got := Tokenize(text); !slices.Equal(got, want) {
		t.Fatalf("Tokenize(%q) = %q, reference %q", text, got, want)
	}
	prefix := []string{"kept"}
	if got := AppendTokens(prefix, text); !slices.Equal(got, append([]string{"kept"}, want...)) {
		t.Fatalf("AppendTokens onto a prefix, %q: %q, reference %q", text, got, want)
	}
}

func TestAppendTokensMatchesReference(t *testing.T) {
	for _, text := range []string{
		"",
		"a",
		"ab",
		"a b c dd e",
		"Hello, World!",
		"MiXeD cAsE tokens AND lower ones",
		"x1y2 42 7 007 r2d2",
		"peer-to-peer... (systems); [recall]\tcost\nline",
		"κλυστερ overlay Ünïcode naïve",
		"é",                          // one letter, two bytes: kept, the length is in bytes
		"aé éa é1",                   // a non-ASCII letter ends an ASCII run
		"ab—cd ab–Cd",                // non-ASCII separators
		"\u0130stanbul KELVIN\u212a", // İ and the Kelvin sign: lowercasing changes the byte length
		"٣٤ digits ४२",
		"bad\xffutf8 \xc3( tail\xe2\x82",
		"trailingUPPER",
		"UPPERleading lower",
	} {
		checkTokens(t, text)
	}

	// 1000 seeded random strings over an alphabet that mixes every class
	// the tokenizer tells apart.
	alphabet := []string{
		"a", "b", "z", "q", "0", "9", "A", "Z", " ", " ", "-", ".", "\n",
		"é", "Σ", "ß", "—", "\u212a", "\u0130", "٣", "\xff", "\xc3", "日",
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 1000; i++ {
		var b strings.Builder
		for n := rng.Intn(40); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		checkTokens(t, b.String())
	}
}

func FuzzTokenize(f *testing.F) {
	f.Add("")
	f.Add("Hello, World!")
	f.Add("κλυστερ overlay é")
	f.Add("ab\xffcd\u212a")
	f.Fuzz(func(t *testing.T, text string) {
		checkTokens(t, text)
	})
}

func TestAppendProcessedReusesBuffer(t *testing.T) {
	const text = "The peers are clustering their queries, and the clusters improved!"
	want := Process(text)
	buf := make([]string, 2, 64)
	buf[0], buf[1] = "first", "second"
	got := AppendProcessed(buf, text)
	if !slices.Equal(got[:2], []string{"first", "second"}) {
		t.Fatalf("prefix rewritten: %q", got[:2])
	}
	if !slices.Equal(got[2:], want) {
		t.Fatalf("appended %q, Process gives %q", got[2:], want)
	}
	if &got[0] != &buf[0] {
		t.Fatal("AppendProcessed reallocated a buffer with room to spare")
	}
	// The buffer is reusable: a second text over the same storage.
	again := AppendProcessed(got[:0], "running peers")
	if !slices.Equal(again, []string{"run", "peer"}) {
		t.Fatalf("second use of the buffer gave %q", again)
	}
}
