package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// documentGolden is the SHA-256 of the first 500 documents at seed 1
// under DefaultConfig (shared words, inflections and stop words all
// present), recorded at the commit before DocumentRNG stopped
// formatting its words and sorting term strings. Category, raw text
// and term IDs all go in: a generator that draws in another order,
// writes another byte or interns under another ID changes it.
const documentGolden = "aa907a1bf4aebe3781e92893ecde3087dd04200f43b45d937ef8d93a69defc44"

func TestDocumentGolden(t *testing.T) {
	cfg := DefaultConfig()
	g := NewGenerator(cfg, 1)
	h := sha256.New()
	for i := 0; i < 500; i++ {
		doc := g.Document(i % cfg.Categories)
		fmt.Fprintf(h, "%d\n%s\n%v\n", doc.Category, doc.Text, doc.Terms.IDs())
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != documentGolden {
		t.Fatalf("first 500 documents at seed 1 hash to %s, want %s", got, documentGolden)
	}
}
