package wordscan

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

var table = map[string]uint16{
	"und": 1, "the": 2, "für": 1 | 4, "e-mail": 8, "straße": 16, "a": 2 | 32,
}

// reference is the straightforward scorer Tally replaces: lower-case
// the whole text, split it into words, look each one up.
func reference(text string, hyphen bool) (scores [16]int, words int) {
	for _, w := range strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !(hyphen && r == '-')
	}) {
		words++
		mask := table[w]
		for i := 0; mask != 0; i++ {
			if mask&1 != 0 {
				scores[i]++
			}
			mask >>= 1
		}
	}
	return scores, words
}

// TestTallyMatchesReference checks Tally against the reference scorer
// for strings and byte slices alike, including invalid UTF-8, upper
// case, hyphens and words longer than the stack buffer.
func TestTallyMatchesReference(t *testing.T) {
	check := func(text string) bool {
		for _, hyphen := range []bool{false, true} {
			want, wantWords := reference(text, hyphen)
			var fromString, fromBytes [16]int
			if Tally(text, table, hyphen, &fromString) != wantWords ||
				Tally([]byte(text), table, hyphen, &fromBytes) != wantWords ||
				fromString != want || fromBytes != want {
				t.Logf("text %q hyphen %v: want %v (%d words)", text, hyphen, want, wantWords)
				return false
			}
		}
		return true
	}
	for _, s := range []string{
		"", "und", "UND the, Für e-mail -", "STRASSE straße STRAẞE",
		"a\xffund\xc3the\xc3\xa4", strings.Repeat("für", 40) + " und",
		"ÀÉÎ õ-a ñ", "e-mail und",
	} {
		if !check(s) {
			t.Fatalf("mismatch on %q", s)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
