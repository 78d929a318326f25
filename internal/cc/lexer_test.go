package cc

import (
	"strings"
	"testing"
)

// spellings lexes src and returns each token's spelling, without the EOF.
func spellings(t *testing.T, src string) []string {
	t.Helper()
	toks, err := lex(src)
	if err != nil {
		t.Fatalf("lex(%q): %v", src, err)
	}
	var out []string
	for _, tok := range toks[:len(toks)-1] {
		out = append(out, tok.String())
	}
	return out
}

func TestLexPunctuation(t *testing.T) {
	for p := range punctuations {
		toks, err := lex(p)
		if err != nil {
			t.Fatalf("lex(%q): %v", p, err)
		}
		if len(toks) != 2 || toks[0].kind != tPunct || toks[0].val != p {
			t.Errorf("lex(%q) = %v, want the one punctuation %q", p, toks, p)
		}
	}
	// Maximal munch: the longest spelling at each position wins.
	for _, c := range []struct{ src, want string }{
		{"a<<=b", "a <<= b"},
		{"a<<b", "a << b"},
		{"a<=<b", "a <= < b"},
		{"a>>=>b", "a >>= > b"},
		{"x---y", "x -- - y"},
		{"x+++y", "x ++ + y"},
		{"x-->y", "x -- > y"},
		{"p->q", "p -> q"},
		{"a!==b", "a != = b"},
		{"a&&&b", "a && & b"},
		{"a|||b", "a || | b"},
		{"...", "..."},
		{"f(a,b);", "f ( a , b ) ;"},
		{"x?y:z", "x ? y : z"},
	} {
		if got := strings.Join(spellings(t, c.src), " "); got != c.want {
			t.Errorf("lex(%q) = %q, want %q", c.src, got, c.want)
		}
	}
	for _, src := range []string{".", "..", "....", "a.b", "@", "#", "$", "`", "\\"} {
		if _, err := lex(src); err == nil || !strings.Contains(err.Error(), "unexpected character") {
			t.Errorf("lex(%q) = %v, want an unexpected-character error", src, err)
		}
	}
}
