// Package wordscan is the single-pass keyword scorer shared by the
// language detector and the content categorizer. Both look every word
// of a page's text up in a word→bitmask table and count, per bit, how
// many words carry it.
//
// Scanning works on strings and byte slices alike, so callers that
// build page text into a reusable buffer scan it in place without
// converting it to a string.
package wordscan

import (
	"unicode"
	"unicode/utf8"
)

// Text is the representation of the text being scanned.
type Text interface{ ~string | ~[]byte }

// Tally splits text into words and, for every word found in table,
// adds one to scores[i] for each bit i of its mask. It returns the
// number of words.
//
// A word is a maximal run of letters, plus '-' when hyphen is set.
// Each word is lower-cased into a small reusable buffer; lower-casing
// happens before the letter test, exactly like strings.FieldsFunc over
// strings.ToLower(text) (lowering never changes letter-ness). Nothing
// is allocated unless a word outgrows the buffer.
func Tally[T Text](text T, table map[string]uint16, hyphen bool, scores *[16]int) int {
	words := 0
	var buf [64]byte // stack word buffer (no closure, so it never escapes)
	word := buf[:0]
	for i := 0; i < len(text); {
		// ASCII fast path: lower-case and classify bytewise; everything
		// else goes through the unicode tables.
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if (c >= 'a' && c <= 'z') || (hyphen && c == '-') {
				word = append(word, c)
				continue
			}
		} else {
			r, size := decodeRune(text[i:])
			i += size
			if lr := unicode.ToLower(r); unicode.IsLetter(lr) || (hyphen && lr == '-') {
				word = utf8.AppendRune(word, lr)
				continue
			}
		}
		if len(word) > 0 {
			words++
			score(table, word, scores)
			word = word[:0]
		}
	}
	if len(word) > 0 {
		words++
		score(table, word, scores)
	}
	return words
}

// score credits every bit of word's mask. The map index converts
// without allocating.
func score(table map[string]uint16, word []byte, scores *[16]int) {
	mask := table[string(word)]
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			scores[i]++
		}
		mask >>= 1
	}
}

// decodeRune is utf8.DecodeRune for either representation: the rune's
// bytes are copied into a small array rather than converting (and so
// copying) the rest of a []byte text to a string.
func decodeRune[T Text](s T) (rune, int) {
	var b [utf8.UTFMax]byte
	return utf8.DecodeRune(b[:copy(b[:], s)])
}
