package textproc

// Stem normalizes common English inflections with a light
// suffix-stripping stemmer (a compact approximation of the
// lemmatization step in the paper's preprocessing). It intentionally
// errs on the conservative side: a wrong merge between two distinct
// topical words is worse for clustering than a missed merge.
//
// Rules, applied in order, first match wins:
//
//	sses -> ss  (classes -> class)
//	ies  -> y   (queries -> query)
//	s    -> ""  (peers -> peer; "ss"/"us"/"is" endings are kept)
//	ing  -> ""  (running -> run via undoubling; caching -> cach)
//	ed   -> ""  (clustered -> cluster)
//	ly   -> ""  (quickly -> quick)
func Stem(w string) string {
	n := len(w)
	if n < 4 {
		return w
	}
	// The three s rules, ing, ed and ly end in four different letters,
	// so the last byte picks among them and only the s rules need their
	// order kept.
	switch w[n-1] {
	case 's':
		switch {
		case n > 4 && w[n-4:] == "sses":
			return w[:n-2]
		case n > 4 && w[n-3:] == "ies":
			return w[:n-3] + "y"
		case w[n-2] == 's', w[n-2] == 'u', w[n-2] == 'i':
			return w
		}
		return w[:n-1]
	case 'g':
		if n > 5 && w[n-3:] == "ing" {
			return undouble(w[:n-3])
		}
	case 'd':
		if n > 4 && w[n-2] == 'e' {
			return undouble(w[:n-2])
		}
	case 'y':
		if n > 4 && w[n-2] == 'l' {
			return w[:n-2]
		}
	}
	return w
}

// undouble collapses a doubled final consonant left by -ing/-ed
// stripping (running -> runn -> run) but keeps legitimate doubles that
// end in l/s/z rarely matter at this fidelity; we collapse all doubles
// except "ss".
func undouble(w string) string {
	n := len(w)
	if n >= 2 && w[n-1] == w[n-2] && !isVowel(w[n-1]) && w[n-1] != 's' {
		return w[:n-1]
	}
	return w
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
