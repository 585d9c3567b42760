// Package langdetect identifies the language of website text. It
// substitutes for CLD3 in the paper (§4.1, "we inspect the language of
// the cookiewall websites using CLD3 to characterize the main target
// audience").
//
// The classifier is a weighted stopword scorer with diacritic hints:
// function words are near-perfect discriminators for the languages the
// study encounters (German, English, Italian, Swedish, French, Spanish,
// Portuguese, Dutch, Danish, Afrikaans), they are extremely frequent,
// and the approach is fully deterministic — no model files needed.
package langdetect

import (
	"sort"

	"cookiewalk/internal/wordscan"
)

// Result is a language detection outcome.
type Result struct {
	// Lang is an ISO 639-1 code, or "und" when undetermined.
	Lang string
	// Confidence is the winning share of the total score in [0,1].
	Confidence float64
}

// Languages returns the ISO codes the detector can distinguish, sorted.
func Languages() []string {
	out := make([]string, 0, len(stopwords))
	for l := range stopwords {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// stopwords maps language code to highly frequent function words.
// Words shared between languages (e.g. "in" de/en/it, "de" fr/es/pt/nl)
// are fine: they contribute to several scores and the distinctive rest
// decides.
var stopwords = map[string][]string{
	"de": {"und", "der", "die", "das", "nicht", "mit", "für", "auf", "ist",
		"sie", "wir", "ein", "eine", "von", "zu", "den", "im", "auch",
		"werden", "oder", "bei", "nur", "alle", "wird", "ihre", "unsere",
		"können", "ohne", "mehr", "zur", "zum", "durch", "über"},
	"en": {"the", "and", "of", "to", "in", "is", "you", "that", "it",
		"for", "with", "are", "this", "your", "our", "all", "can",
		"will", "more", "about", "use", "we", "on", "by", "or", "from"},
	"it": {"il", "la", "di", "che", "e", "un", "una", "per", "con", "del",
		"della", "sono", "non", "più", "questo", "nostro", "tutti",
		"anche", "come", "dei", "delle", "gli", "nel", "alla", "senza"},
	"sv": {"och", "att", "det", "som", "på", "är", "av", "för", "med",
		"den", "till", "inte", "om", "ett", "vi", "du", "kan", "din",
		"våra", "alla", "eller", "har", "från", "utan", "mer"},
	"fr": {"le", "la", "les", "des", "et", "est", "vous", "que", "pour",
		"dans", "une", "nous", "avec", "sur", "votre", "nos", "tous",
		"pas", "plus", "aux", "ces", "sans", "être", "sont", "ou"},
	"es": {"el", "la", "los", "las", "de", "que", "y", "en", "un", "una",
		"es", "para", "con", "su", "por", "más", "como", "nuestro",
		"todos", "sin", "usted", "puede", "este", "sobre", "o"},
	"pt": {"o", "a", "os", "as", "de", "que", "e", "em", "um", "uma",
		"é", "para", "com", "seu", "sua", "por", "mais", "como",
		"nosso", "todos", "sem", "você", "pode", "este", "ou", "não"},
	"nl": {"de", "het", "een", "en", "van", "is", "dat", "op", "te",
		"met", "voor", "zijn", "niet", "aan", "ook", "als", "bij",
		"naar", "uw", "onze", "alle", "kunnen", "zonder", "meer", "of"},
	"da": {"og", "det", "at", "en", "den", "til", "er", "som", "på",
		"de", "med", "for", "ikke", "der", "du", "vi", "kan", "din",
		"vores", "alle", "eller", "har", "fra", "uden", "mere"},
	"af": {"die", "en", "van", "het", "is", "vir", "wat", "nie", "met",
		"op", "aan", "om", "ons", "jou", "alle", "kan", "word", "meer",
		"sonder", "hierdie", "deur", "was", "sal", "u"},
}

// diacriticHints gives a bonus when a language-distinctive character
// appears, disambiguating close relatives (sv/da, es/pt, de/nl).
// All hints lie in U+0080..U+00FF (see latin1Seen).
var diacriticHints = map[string][]rune{
	"de": {'ß', 'ä', 'ö', 'ü'},
	"sv": {'å', 'ä', 'ö'},
	"da": {'å', 'æ', 'ø'},
	"fr": {'ç', 'é', 'è', 'ê', 'à', 'ù'},
	"es": {'ñ', '¿', '¡', 'ó', 'í'},
	"pt": {'ã', 'õ', 'ç', 'ê', 'á'},
	"it": {'à', 'è', 'ì', 'ò', 'ù'},
}

const diacriticBonus = 2.0

// Detect identifies the language of text. Short or empty input returns
// ("und", 0). Ties break deterministically in favour of the
// alphabetically first language code.
//
// Scoring streams over the text in a single pass (wordscan.Tally):
// each token is looked up once in a combined word→languages bitmask
// table, and a token contributes 1 to exactly the languages whose
// stopword set contains it.
func Detect(text string) Result { return detect(text) }

// DetectBytes is Detect for text held in a byte slice, scanned in
// place without a copy.
func DetectBytes(text []byte) Result { return detect(text) }

func detect[T wordscan.Text](text T) Result {
	var counts [16]int // indexed by langCodes position
	if wordscan.Tally(text, wordLangs, false, &counts) < 3 {
		return Result{Lang: "und"}
	}
	var scores [16]float64
	for i, n := range counts {
		scores[i] = float64(n)
	}
	seen := latin1Seen(text)
	for lang, runes := range diacriticHints {
		for _, r := range runes {
			if seen[r-latin1Base] {
				scores[langIndex[lang]] += diacriticBonus
			}
		}
	}
	var total float64
	best, bestScore := "und", 0.0
	for i, lang := range langCodes {
		s := scores[i]
		total += s
		if s > bestScore {
			best, bestScore = lang, s
		}
	}
	if bestScore == 0 || total == 0 {
		return Result{Lang: "und"}
	}
	return Result{Lang: best, Confidence: bestScore / total}
}

// latin1Base is the first rune of the two-byte UTF-8 range U+0080 to
// U+00FF, where every diacritic hint lives.
const latin1Base = 0x80

// latin1Seen reports, for every rune in U+0080..U+00FF, whether its
// UTF-8 encoding (0xC2 or 0xC3, then a continuation byte) occurs in
// text: the byte-sequence match strings.ContainsRune makes, for all
// hints in one pass.
func latin1Seen[T wordscan.Text](text T) (seen [0x80]bool) {
	for i := 0; i+1 < len(text); i++ {
		if c, d := text[i], text[i+1]; (c == 0xC2 || c == 0xC3) && d >= 0x80 && d <= 0xBF {
			seen[rune(c&0x1F)<<6|rune(d&0x3F)-latin1Base] = true
		}
	}
	return seen
}

// langCodes is the sorted language list; langIndex its inverse; and
// wordLangs the combined stopword table mapping each word to the
// bitmask (over langCodes positions) of languages that use it.
var langCodes = func() []string {
	ls := Languages()
	if len(ls) > 16 {
		panic("langdetect: more languages than the score array holds")
	}
	return ls
}()

var langIndex = func() map[string]int {
	m := make(map[string]int, len(langCodes))
	for i, l := range langCodes {
		m[l] = i
	}
	return m
}()

var wordLangs = func() map[string]uint16 {
	m := make(map[string]uint16, 256)
	for lang, words := range stopwords {
		bit := uint16(1) << langIndex[lang]
		for _, w := range words {
			m[w] |= bit
		}
	}
	return m
}()
