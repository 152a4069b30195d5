package navcalc_test

import (
	"context"
	"testing"

	"webbase/internal/carmaps"
	"webbase/internal/navcalc"
	"webbase/internal/navmap"
	"webbase/internal/sites"
)

// TestFormatParseRoundTrip: the textual syntax is print-only, so the form
// an expression is read back from is its map's JSON. Formatting, encoding,
// decoding and formatting again is a fixed point, and the re-read
// expression behaves as the original.
func TestFormatParseRoundTrip(t *testing.T) {
	orig, err := navmap.Translate(carmaps.AllMaps()["newsday"])
	if err != nil {
		t.Fatal(err)
	}
	text1 := navcalc.FormatExpression(orig)
	data, err := navmap.EncodeMap(carmaps.AllMaps()["newsday"])
	if err != nil {
		t.Fatal(err)
	}
	m, err := navmap.DecodeMap(data)
	if err != nil {
		t.Fatal(err)
	}
	reread, err := navmap.Translate(m)
	if err != nil {
		t.Fatal(err)
	}
	if text2 := navcalc.FormatExpression(reread); text1 != text2 {
		t.Errorf("format not a fixed point:\n%s\nvs\n%s", text1, text2)
	}
	w := sites.BuildWorld()
	in := map[string]string{"Make": "honda", "Model": "civic"}
	a, _, err := orig.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := reread.Execute(context.Background(), w.Server, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 || a.Len() != b.Len() {
		t.Errorf("behaviour changed: %d vs %d", a.Len(), b.Len())
	}
}

// TestFormatStandardExpressions prints the kellys expression its map
// derives, in full, and runs it against the blue-book site.
func TestFormatStandardExpressions(t *testing.T) {
	expr, err := navmap.Translate(carmaps.AllMaps()["kellys"])
	if err != nil {
		t.Fatal(err)
	}
	const want = `expression kellys(Make, Model, Year, Condition, BBPrice)
start "http://kbb.example/"
goal visit_home
rule visit_data = extract(Make <- "Make", Model <- "Model", Year <- "Year", Condition <- "Condition", BBPrice <- money "BBPrice") ; ()
rule visit_home = follow("Price a Used Car") ; visit_pricerPg
rule visit_pricerPg = submit("pricer"; make=?Make, model=?Model, year=?Year, condition=?Condition) ; visit_data
`
	if got := navcalc.FormatExpression(expr); got != want {
		t.Errorf("kellys prints\n%s\nwant\n%s", got, want)
	}
	w := sites.BuildWorld()
	rel, _, err := expr.Execute(context.Background(), w.Server, map[string]string{
		"Make": "jaguar", "Model": "xj6", "Year": "1994", "Condition": "good"})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("kellys rows = %d", rel.Len())
	}
	bb, _ := rel.Get(rel.Tuples()[0], "BBPrice")
	if int(bb.IntVal()) != sites.BlueBook("jaguar", "xj6", 1994, "good") {
		t.Errorf("bbprice = %v", bb)
	}
}
