package textproc

import "sort"

// Process runs the paper's full preprocessing pipeline over raw text:
// tokenize, drop stop words, stem. The result preserves token order
// (duplicates included); use TermFrequencies / SortByFrequency for the
// frequency-sorted view the paper describes.
func Process(text string) []string {
	return AppendProcessed(nil, text)
}

// AppendProcessed appends Process's terms to dst, for a caller that
// reuses a buffer. What dst already holds is left as it is.
func AppendProcessed(dst []string, text string) []string {
	n := len(dst)
	dst = AppendTokens(dst, text)
	out := dst[:n]
	for _, t := range dst[n:] {
		if IsStopword(t) {
			continue
		}
		s := Stem(t)
		if len(s) < 2 || IsStopword(s) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// TermFrequencies counts occurrences of each processed term.
func TermFrequencies(terms []string) map[string]int {
	tf := make(map[string]int, len(terms))
	for _, t := range terms {
		tf[t]++
	}
	return tf
}

// TermCount pairs a term with its frequency.
type TermCount struct {
	Term  string
	Count int
}

// SortByFrequency returns the terms sorted by decreasing frequency,
// breaking ties lexicographically so the order is deterministic — the
// paper sorts the resulting words by frequency of appearance.
func SortByFrequency(tf map[string]int) []TermCount {
	out := make([]TermCount, 0, len(tf))
	for t, c := range tf {
		out = append(out, TermCount{Term: t, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Term < out[j].Term
	})
	return out
}

// UniqueTerms returns the distinct processed terms of text, sorted by
// decreasing frequency. This is the attribute set extraction used to
// describe a document.
func UniqueTerms(text string) []string {
	tc := SortByFrequency(TermFrequencies(Process(text)))
	out := make([]string, len(tc))
	for i, t := range tc {
		out[i] = t.Term
	}
	return out
}
