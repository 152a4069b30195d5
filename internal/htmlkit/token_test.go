package htmlkit

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// tokens runs the tokenizer over src and renders its spans as Tokens, the
// way the parser keeps them: names lower-cased, text and values decoded
// (but for the verbatim text of a script or style), doctypes trimmed.
func tokens(t *testing.T, src string) []Token {
	t.Helper()
	z := tokenizer{src: []byte(src)}
	str := func(s span) string { return string(z.src[s.start:s.end]) }
	var out []Token
	for z.next() {
		tok := z.tok
		out = append(out, Token{Type: TokenType(tok.typ), Data: str(tok.data)})
		last := &out[len(out)-1]
		switch tok.typ {
		case textToken:
			if !tok.verbatim {
				last.Data = DecodeEntities(last.Data)
			}
		case doctypeToken:
			last.Data = strings.TrimSpace(last.Data)
		case startTagToken, selfClosingTagToken, endTagToken:
			last.Data = strings.ToLower(last.Data)
		}
		if tok.typ == startTagToken || tok.typ == selfClosingTagToken {
			attrs := z.attrs[tok.attrs.start:tok.attrs.end]
			if tok.tag == tagOther {
				attrs = attrs[1:] // the name slot
			}
			for _, a := range attrs {
				last.Attrs = append(last.Attrs, Attr{Name: strings.ToLower(str(a.name)), Value: string(appendDecoded(nil, []byte(str(a.value)), true))})
			}
		}
	}
	return out
}

func TestTokenizeBasic(t *testing.T) {
	toks := tokens(t, `<html><body class="x">Hi &amp; bye</body></html>`)
	want := []Token{
		{Type: StartTagToken, Data: "html"},
		{Type: StartTagToken, Data: "body", Attrs: []Attr{{"class", "x"}}},
		{Type: TextToken, Data: "Hi & bye"},
		{Type: EndTagToken, Data: "body"},
		{Type: EndTagToken, Data: "html"},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("got %#v\nwant %#v", toks, want)
	}
}

func TestTokenizeAttrForms(t *testing.T) {
	toks := tokens(t, `<input type=text name='q' value="a b" checked>`)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	tok := toks[0]
	for name, want := range map[string]string{
		"type": "text", "name": "q", "value": "a b", "checked": "",
	} {
		if got, ok := tok.Attr(name); !ok || got != want {
			t.Errorf("attr %q = %q,%v; want %q", name, got, ok, want)
		}
	}
	if _, ok := tok.Attr("missing"); ok {
		t.Error("missing attribute reported present")
	}
}

func TestTokenizeSelfClosing(t *testing.T) {
	toks := tokens(t, `<br/><img src="x.gif" />`)
	if toks[0].Type != SelfClosingTagToken || toks[1].Type != SelfClosingTagToken {
		t.Errorf("expected self-closing tokens, got %#v", toks)
	}
}

func TestTokenizeCommentAndDoctype(t *testing.T) {
	toks := tokens(t, `<!DOCTYPE html><!-- note -->x`)
	if toks[0].Type != DoctypeToken || toks[0].Data != "DOCTYPE html" {
		t.Errorf("doctype: %#v", toks[0])
	}
	if toks[1].Type != CommentToken || toks[1].Data != " note " {
		t.Errorf("comment: %#v", toks[1])
	}
	if toks[2].Type != TextToken || toks[2].Data != "x" {
		t.Errorf("text: %#v", toks[2])
	}
}

func TestTokenizeScriptRawText(t *testing.T) {
	toks := tokens(t, `<script>if (a < b) { x("&amp;") }</script>after`)
	if toks[0].Data != "script" {
		t.Fatalf("first token: %#v", toks[0])
	}
	if toks[1].Type != TextToken || toks[1].Data != `if (a < b) { x("&amp;") }` {
		t.Errorf("raw text not preserved: %#v", toks[1])
	}
	if toks[2].Type != EndTagToken || toks[2].Data != "script" {
		t.Errorf("end tag: %#v", toks[2])
	}
	if toks[3].Data != "after" {
		t.Errorf("trailing text: %#v", toks[3])
	}
}

func TestTokenizeMalformed(t *testing.T) {
	cases := []string{
		"<",                      // lone open bracket
		"a < b",                  // comparison in text
		"<a href='unterminated",  // unterminated quote
		"<div",                   // unterminated tag
		"<!-- never closed",      // unterminated comment
		"</>",                    // empty end tag
		"<1abc>",                 // invalid tag name
		"<a b=>x</a>",            // empty attr value
		"<p a='1' a='1'",         // duplicate attrs, unterminated
		"<script>while(1){}",     // unterminated raw text
		"&#xZZ; &unknown; &amp",  // malformed entities
		"<td><td></tr></table>x", // stray end tags
	}
	for _, src := range cases {
		z := tokenizer{src: []byte(src)}
		n := 0
		for z.next() {
			if n++; n > 1000 {
				t.Fatalf("tokenizer did not terminate on %q", src)
			}
		}
	}
}

// Property: tokenization always terminates and never panics, on arbitrary
// byte soup — the recovery guarantee the paper's parser needs.
func TestTokenizeNeverPanics(t *testing.T) {
	prop := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		z := tokenizer{src: b}
		for i := 0; ; i++ {
			if !z.next() {
				break
			}
			if i > len(b)+10 {
				return false // must make progress
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: tokenizing HTML-ish random soup (more '<' and '>' density)
// terminates too.
func TestTokenizeHTMLSoup(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	alphabet := []byte(`<>/="' abcdiv!-&;#`)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(200)
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		z := tokenizer{src: b}
		for i := 0; ; i++ {
			if !z.next() {
				break
			}
			if i > n+10 {
				t.Fatalf("no progress on soup %q", b)
			}
		}
	}
}

func TestDecodeEntities(t *testing.T) {
	cases := map[string]string{
		"a &amp; b":     "a & b",
		"&lt;tag&gt;":   "<tag>",
		"&#65;&#x42;":   "AB",
		"&unknown;":     "&unknown;",
		"no entities":   "no entities",
		"&amp":          "&",        // a legacy name needs no semicolon
		"&ampx &copy;":  "&x ©",     // the longest legacy name it starts with
		"&trade":        "&trade",   // a name that is not legacy needs one
		"&eacute;":      "&eacute;", // a name not in the table stays literal
		"&LT;&GT &REG":  "<> ®",
		"&;":            "&;",
		"&#xZZ;":        "&#xZZ;",
		"&#0;":          "&#0;", // NUL rejected
		"&nbsp;x":       " x",
		"&quot;q&quot;": `"q"`,
	}
	for in, want := range cases {
		if got := DecodeEntities(in); got != want {
			t.Errorf("DecodeEntities(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	prop := func(s string) bool {
		return DecodeEntities(EscapeText(s)) == s && DecodeEntities(EscapeAttr(s)) == s
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestEmptyCommentEndsAtItsBracket: "<!-->" and "<!--->" are empty
// comments that end at their '>' (WHATWG's abrupt-closing-of-empty-comment),
// not comments that run to the next "-->" and swallow the page between.
func TestEmptyCommentEndsAtItsBracket(t *testing.T) {
	for _, src := range []string{"<!--><a href=/x>x</a>", "<!---><a href=/x>x</a>"} {
		links := Scan(Parse([]byte(src)), "http://site.example/").Links
		if want := []Link{{Name: "x", Href: "/x"}}; !reflect.DeepEqual(links, want) {
			t.Errorf("Scan(%q).Links = %v, want %v", src, links, want)
		}
		if toks := tokens(t, src); len(toks) == 0 || toks[0].Type != CommentToken || toks[0].Data != "" {
			t.Errorf("%q: first token %v, want an empty comment", src, toks)
		}
	}
}

// TestConformance holds Scan to what the WHATWG HTML parsing algorithm
// (https://html.spec.whatwg.org/multipage/parsing.html) makes of
// hand-written pages: each case cites the state that decides it and
// states the links a browser shows, and the reference tokenizer must
// agree.
func TestConformance(t *testing.T) {
	for _, tc := range []struct {
		name, cite, src string
		links           []Link
		title           string
	}{
		{"--!> closes a comment",
			"#comment-end-bang-state: '>' after \"--!\" is an incorrectly-closed-comment that emits the comment",
			`<!-- x --!><a href="/after">after</a>`,
			[]Link{{Name: "after", Href: "/after"}}, ""},
		{"--!> closes an empty comment",
			"#comment-start-dash-state to #comment-end-state to #comment-end-bang-state",
			`<!----!><a href="/after">after</a>`,
			[]Link{{Name: "after", Href: "/after"}}, ""},
		{"--! without > does not close a comment",
			"#comment-end-bang-state: anything else appends \"--!\" and the comment goes on",
			`<!-- --!<a href="/hidden">hidden</a> --><a href="/shown">shown</a>`,
			[]Link{{Name: "shown", Href: "/shown"}}, ""},
		{"a second <a> closes an open one",
			"#parsing-main-inbody: a start tag \"a\" while an a element is in the list of active formatting elements runs the adoption agency, which closes it",
			`<a href=/a1>one<a href=/a2>two</a>`,
			[]Link{{Name: "one", Href: "/a1"}, {Name: "two", Href: "/a2"}}, ""},
		{"markup in a textarea is text",
			"#rcdata-state: a textarea's content up to its end tag is character tokens",
			`<form><textarea name=t><a href="/x">x</a></textarea></form><a href="/y">y</a>`,
			[]Link{{Name: "y", Href: "/y"}}, ""},
		{"markup in a title is text",
			"#rcdata-state: a title's content up to its end tag is character tokens, character references decoded",
			`<title>T <a href="/t">in title</a> &amp; more</title><body>b</body>`,
			nil, `T <a href="/t">in title</a> & more`},
		{"a legacy reference needs no ; in text",
			"#named-character-reference-state: the longest legacy name matches without its ';' (a missing-semicolon parse error, decoded)",
			`<title>&COPY 1999 &AMP; co</title><a href="/c">&copy 1999 &ltb&gt &ampx</a>`,
			[]Link{{Name: "© 1999 <b> &x", Href: "/c"}}, "© 1999 & co"},
		{"in an attribute, a legacy reference before = or an alphanumeric stays literal",
			"#named-character-reference-state: in an attribute value, a match not ending in ';' whose next character is '=' or an ASCII alphanumeric is flushed as written; any other is decoded",
			`<a href="/x?a=1&copy=2&reg1&lt">x</a><a href="/y?&amp&gt;">y</a>`,
			[]Link{{Name: "x", Href: "/x?a=1&copy=2&reg1<"}, {Name: "y", Href: "/y?&>"}}, ""},
		{"a name the table lacks stays literal (named deviation)",
			"#named-character-reference-state decodes the legacy name eacute to é; namedEntities lacks it, so htmlkit keeps it as written",
			`<title>caf&eacute x caf&eacute;</title>`,
			nil, "caf&eacute x caf&eacute;"},
	} {
		doc := Parse([]byte(tc.src))
		page := Scan(doc, "http://site.example/")
		if !reflect.DeepEqual(page.Links, tc.links) || page.Title != tc.title {
			t.Errorf("%s (%s): %s\nlinks %v, title %q; want %v, %q", tc.name, tc.cite, tc.src, page.Links, page.Title, tc.links, tc.title)
		}
		if got, want := tokens(t, tc.src), refTokens([]byte(tc.src)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: token stream %v, reference %v", tc.name, got, want)
		}
		sameTree(t, *doc, refParse([]byte(tc.src)))
	}
}

// TestLookupTag: every name in tagNames maps to its id however it is
// written, and a name near one — a byte longer or shorter, a byte outside
// a name, too long for any — maps to tagOther.
func TestLookupTag(t *testing.T) {
	for i, name := range tagNames[1:] {
		id := tagID(i + 1)
		mixed := []byte(name)
		for k := 0; k < len(mixed); k += 2 {
			mixed[k] = strings.ToUpper(name)[k]
		}
		for _, written := range []string{name, strings.ToUpper(name), string(mixed)} {
			if got := lookupTag([]byte(written)); got != id {
				t.Errorf("lookupTag(%q) = %d (%q), want %d", written, got, tagNames[got], id)
			}
		}
		for _, near := range []string{name + "x", name[:len(name)-1], name[:len(name)-1] + "\x00", name + "-" + name} {
			if got := lookupTag([]byte(near)); got != tagOther && tagNames[got] != near {
				t.Errorf("lookupTag(%q) = %d (%q), want tagOther", near, got, tagNames[got])
			}
		}
	}
	for _, name := range []string{"", "blockquotes", "\x80", "tab le", "ta\xc3\x9fle"} {
		if got := lookupTag([]byte(name)); got != tagOther {
			t.Errorf("lookupTag(%q) = %d (%q), want tagOther", name, got, tagNames[got])
		}
	}
}
