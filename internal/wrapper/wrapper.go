// Package wrapper implements pattern-based data-extraction scripts for
// data pages that do not present their tuples in tables.
//
// Figure 3 of the paper gives every data page an extraction method and
// Section 7 notes the designer supplies the script; table extraction is
// built into navcalc, and this package covers the other common 1990s
// layout: label–value records ("Price: $3,000" lines), one record per
// page or many records separated by a heading element. The related-work
// section points at Ariadne's wrapper research for anything fancier.
package wrapper

import (
	"strings"

	"webbase/internal/htmlkit"
	"webbase/internal/relation"
)

// Field maps a record label onto an output attribute.
type Field struct {
	Label string // text before the colon, case-insensitive ("Price")
	Attr  string // output attribute
	Money bool   // parse the value as a currency amount
}

// Script extracts label–value records from a page.
type Script struct {
	// ItemTag, when non-empty, names the element that starts each record
	// (e.g. "h3": every h3 heading opens a new record). Empty means the
	// whole page is a single record.
	ItemTag string
	Fields  []Field
}

// Attrs returns the output attributes of the script's fields.
func (s *Script) Attrs() []string {
	out := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		out[i] = f.Attr
	}
	return out
}

// Extract runs the script over a parsed page and returns one attribute →
// value map per record that matched at least one field. Records matching
// no field at all are dropped, so navigation can treat an empty result as
// "not a data page".
func (s *Script) Extract(doc *htmlkit.Node) []map[string]relation.Value {
	var records []map[string]relation.Value
	for _, region := range regions(doc, s.ItemTag) {
		rec := make(map[string]relation.Value)
		for _, line := range region {
			label, value, ok := splitLabel(line)
			if !ok {
				continue
			}
			for _, f := range s.Fields {
				if !strings.EqualFold(f.Label, label) {
					continue
				}
				if f.Money {
					rec[f.Attr] = relation.ParseMoney(value)
				} else {
					rec[f.Attr] = relation.Parse(value)
				}
			}
		}
		if len(rec) > 0 {
			records = append(records, rec)
		}
	}
	return records
}

// splitLabel splits "Label: value" at the first colon.
func splitLabel(line string) (label, value string, ok bool) {
	i := strings.IndexByte(line, ':')
	if i <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:i]), strings.TrimSpace(line[i+1:]), true
}

// blockTags end a text line, the way browsers render them.
var blockTags = map[string]bool{
	"p": true, "br": true, "li": true, "div": true, "tr": true, "td": true,
	"dt": true, "dd": true, "h1": true, "h2": true, "h3": true, "h4": true,
	"hr": true, "table": true, "ul": true, "ol": true,
}

// regions splits the page into per-record line lists. With itemTag empty
// the whole page is one region; otherwise each occurrence of the tag
// starts a new region (text before the first occurrence belongs to a
// preamble region that usually matches nothing). The text of a script or
// style element is not on the page a browser renders, so it is on no line.
func regions(doc *htmlkit.Node, itemTag string) [][]string {
	var out [][]string
	cur := []string{}
	var line strings.Builder

	flushLine := func() {
		if t := strings.TrimSpace(line.String()); t != "" {
			cur = append(cur, t)
		}
		line.Reset()
	}
	flushRegion := func() {
		flushLine()
		out = append(out, cur)
		cur = []string{}
	}

	var walk func(n htmlkit.Node)
	walk = func(n htmlkit.Node) {
		block := false
		switch n.Type() {
		case htmlkit.ElementNode:
			if n.IsElement("script") || n.IsElement("style") {
				return
			}
			if itemTag != "" && n.Data() == itemTag {
				flushRegion()
			}
			if block = blockTags[n.Data()]; block {
				flushLine()
			}
		case htmlkit.TextNode:
			line.WriteString(n.Data())
			line.WriteByte(' ')
		}
		for c, ok := n.FirstChild(); ok; c, ok = c.NextSibling() {
			walk(c)
		}
		if block {
			flushLine()
		}
	}
	walk(*doc)
	flushRegion()
	return out
}
