// Package textproc implements the text preprocessing pipeline the paper
// applies to its Newsgroup articles before clustering (§4): texts are
// tokenized, stop words are removed, a lemmatization step normalizes
// morphological variants (approximated here with a light suffix-stripping
// stemmer), and the resulting words are sorted by frequency of
// appearance.
package textproc

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lowercases text and splits it into maximal runs of letters
// and digits. Punctuation and other symbols act as separators. Tokens
// shorter than two characters are dropped (they carry no topical
// signal and the paper's stop-word pass would remove most of them
// anyway).
func Tokenize(text string) []string {
	return AppendTokens(nil, text)
}

// AppendTokens appends Tokenize's tokens to dst, for a caller that
// reuses a buffer. A token that is already lowercase ASCII letters and
// digits is a substring of text, not a copy, so it keeps text
// reachable; only a token holding an uppercase or non-ASCII character
// is built rune by rune.
func AppendTokens(dst []string, text string) []string {
	for i := 0; i < len(text); {
		start := i
		for i < len(text) && isLowerAlnum(text[i]) {
			i++
		}
		if i < len(text) && (text[i] >= utf8.RuneSelf || 'A' <= text[i] && text[i] <= 'Z') {
			dst, i = appendTokenByRune(dst, text, start)
			continue
		}
		if i-start >= 2 {
			dst = append(dst, text[start:i])
		}
		i++ // the ASCII separator that ended the run, if any
	}
	return dst
}

func isLowerAlnum(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9'
}

// appendTokenByRune appends the lowercased run of letters and digits
// that begins at text[start] (none, when a separator stands there) and
// returns the index past the rune that ended it.
func appendTokenByRune(dst []string, text string, start int) ([]string, int) {
	var b strings.Builder
	i := start
	for i < len(text) {
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		b.WriteRune(unicode.ToLower(r))
	}
	if b.Len() >= 2 {
		dst = append(dst, b.String())
	}
	return dst, i
}
