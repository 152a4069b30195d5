package wrapper

import (
	"testing"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
)

const detailPage = `
<html><body>
<h2>1994 Ford Escort</h2>
<p>Price: $3,250</p>
<p>Mileage: 78,000</p>
<p>Contact: (516) 555-0101</p>
<h2>1996 Ford Escort</h2>
<p>Price: $5,900</p>
<p>Mileage: 41,000</p>
<p>Contact: (516) 555-0102</p>
</body></html>`

func TestExtractMultiRecord(t *testing.T) {
	s := &Script{
		ItemTag: "h2",
		Fields: []Field{
			{Label: "Price", Attr: "Price", Money: true},
			{Label: "Mileage", Attr: "Mileage", Money: true},
			{Label: "Contact", Attr: "Contact"},
		},
	}
	recs := s.Extract(htmlkit.Parse([]byte(detailPage)))
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0]["Price"].IntVal() != 3250 || recs[1]["Price"].IntVal() != 5900 {
		t.Errorf("prices: %v %v", recs[0]["Price"], recs[1]["Price"])
	}
	if recs[0]["Mileage"].IntVal() != 78000 {
		t.Errorf("mileage: %v", recs[0]["Mileage"])
	}
	if recs[1]["Contact"].Str() != "(516) 555-0102" {
		t.Errorf("contact: %v", recs[1]["Contact"])
	}
}

func TestExtractSingleRecordWholePage(t *testing.T) {
	src := `<html><body><dl><dt>Make: jaguar</dt><dd>Year: 1995</dd></dl></body></html>`
	s := &Script{Fields: []Field{
		{Label: "Make", Attr: "Make"},
		{Label: "Year", Attr: "Year"},
	}}
	recs := s.Extract(htmlkit.Parse([]byte(src)))
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0]["Make"].Str() != "jaguar" || recs[0]["Year"].IntVal() != 1995 {
		t.Errorf("record: %v", recs[0])
	}
}

func TestExtractNoMatchesYieldsNil(t *testing.T) {
	s := &Script{Fields: []Field{{Label: "Price", Attr: "Price"}}}
	if recs := s.Extract(htmlkit.Parse([]byte(`<html><body><p>nothing here</p></body></html>`))); recs != nil {
		t.Errorf("recs = %v, want nil", recs)
	}
}

func TestExtractLabelMatchingIsCaseInsensitive(t *testing.T) {
	s := &Script{Fields: []Field{{Label: "price", Attr: "P", Money: true}}}
	recs := s.Extract(htmlkit.Parse([]byte(`<html><body><p>PRICE: $10</p></body></html>`)))
	if len(recs) != 1 || recs[0]["P"].IntVal() != 10 {
		t.Errorf("recs = %v", recs)
	}
}

func TestExtractValueWithColonInside(t *testing.T) {
	// Only the first colon splits; times and URLs survive in the value.
	s := &Script{Fields: []Field{{Label: "Listed", Attr: "L"}}}
	recs := s.Extract(htmlkit.Parse([]byte(`<html><body><p>Listed: 10:30 AM</p></body></html>`)))
	if len(recs) != 1 || recs[0]["L"].Str() != "10:30 AM" {
		t.Errorf("recs = %v", recs)
	}
}

func TestExtractLinesBrokenByBlockTags(t *testing.T) {
	// Two labels in one <p> separated by <br> are distinct lines; inline
	// tags like <b> are not breaks.
	src := `<html><body><p><b>Price</b>: $7 <br> Contact: x</p></body></html>`
	s := &Script{Fields: []Field{
		{Label: "Price", Attr: "P", Money: true},
		{Label: "Contact", Attr: "C"},
	}}
	recs := s.Extract(htmlkit.Parse([]byte(src)))
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0]["P"].IntVal() != 7 || recs[0]["C"].Str() != "x" {
		t.Errorf("record = %v", recs[0])
	}
}

func TestAttrs(t *testing.T) {
	s := &Script{Fields: []Field{{Label: "a", Attr: "A"}, {Label: "b", Attr: "B"}}}
	got := s.Attrs()
	if len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Errorf("attrs = %v", got)
	}
}

func TestUnlabeledLinesIgnored(t *testing.T) {
	src := `<html><body><p>Welcome!</p><p>Price: $42</p><p>: odd leading colon</p></body></html>`
	s := &Script{Fields: []Field{{Label: "Price", Attr: "P", Money: true}}}
	recs := s.Extract(htmlkit.Parse([]byte(src)))
	if len(recs) != 1 || recs[0]["P"].IntVal() != 42 {
		t.Errorf("recs = %v", recs)
	}
	_ = relation.Null()
}

// TestScriptAndStyleTextIsNotAPageLine: no browser renders the text of a
// script or style element. Read as page text, the two runs below joined
// into one line, "Price: 5 Year: 1990", and extracted Price 51990.
func TestScriptAndStyleTextIsNotAPageLine(t *testing.T) {
	src := `<head><script>Price: 5</script><style>Year: 1990</style></head><body><p>Make: ford</p>`
	s := &Script{Fields: []Field{
		{Label: "Price", Attr: "Price", Money: true},
		{Label: "Year", Attr: "Year"},
		{Label: "Make", Attr: "Make"},
	}}
	recs := s.Extract(htmlkit.Parse([]byte(src)))
	if len(recs) != 1 || len(recs[0]) != 1 || recs[0]["Make"].Str() != "ford" {
		t.Errorf("records = %v, want one: {Make: ford}", recs)
	}
}
