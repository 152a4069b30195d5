package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TextContentType is the media type of the page WriteText writes: the
// Prometheus text exposition format, version 0.0.4.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// WriteText writes every series of r in the text exposition format: per
// family, in name order, one # HELP and one # TYPE line, then its
// samples — a labelled family's total first, then name{label="value"}
// per value; a histogram's cumulative name_bucket{le="…"} lines ending at
// +Inf, then name_sum and name_count.
func (r *Registry) WriteText(w io.Writer) error {
	var b []byte
	for _, f := range byName() {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		if f.typ != "histogram" {
			r.eachSeries(f, func(name string, s *Series) {
				b = fmt.Appendf(b, "%s %d\n", name, s.Value())
			})
			continue
		}
		h := &r.hists[f.at]
		h.mu.Lock()
		var cum int64
		for i, n := range h.counts {
			cum += n
			le := math.Inf(1)
			if i < len(f.bounds) {
				le = f.bounds[i]
			}
			b = fmt.Appendf(b, "%s_bucket{le=%q} %d\n", f.name, formatFloat(le), cum)
		}
		b = fmt.Appendf(b, "%s_sum %s\n%s_count %d\n", f.name, formatFloat(h.sum), f.name, h.n)
		h.mu.Unlock()
	}
	_, err := w.Write(b)
	return err
}

// formatFloat spells a float as the exposition format does: shortest
// round-trip form, +Inf for infinity.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ParseText reads a page WriteText wrote in this process back into
// series → value, keyed by the sample's name and labels as written. It
// fails on any page WriteText could not have written: a sample outside
// its family's block or of an undeclared family, a family listed twice,
// missing, without help text or without its # HELP and # TYPE lines, a
// repeated series, or histogram buckets that fall, do not end at +Inf,
// or end at a count other than name_count.
func ParseText(page string) (map[string]float64, error) {
	out := make(map[string]float64)
	listed := make(map[string]bool)
	var cur *family
	var typed bool
	var lastBucket float64
	var lastLE string
	// unfinished names what the current family's block still lacks.
	unfinished := func() string {
		if _, counted := out[cur.name+"_count"]; cur.typ == "histogram" && !counted {
			return "a _count"
		}
		if _, sampled := out[cur.name]; cur.typ != "histogram" && !sampled {
			return "its total"
		}
		return ""
	}
	for i, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		fail := func(format string, args ...any) (map[string]float64, error) {
			return nil, fmt.Errorf("line %d %q: %s", i+1, line, fmt.Sprintf(format, args...))
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if cur != nil && unfinished() != "" {
				return fail("%s has no %s", cur.name, unfinished())
			}
			name, help, _ := strings.Cut(rest, " ")
			if cur = lookup(name); cur == nil {
				return fail("undeclared family")
			}
			if listed[name] {
				return fail("family listed twice")
			}
			if help == "" {
				return fail("no help text")
			}
			listed[name], typed, lastBucket, lastLE = true, false, 0, ""
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if cur == nil || typed || rest != cur.name+" "+cur.typ {
				return fail("not the # TYPE line of the family its # HELP opened")
			}
			typed = true
			continue
		}
		series, text, ok := strings.Cut(line, " ")
		if !ok || !typed {
			return fail("not a sample of a family with # HELP and # TYPE")
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return fail("value: %v", err)
		}
		if _, dup := out[series]; dup {
			return fail("series repeated")
		}
		out[series] = v
		name, labels, _ := strings.Cut(series, "{")
		switch {
		case cur.typ != "histogram":
			if name != cur.name || (labels != "" && !strings.HasPrefix(labels, cur.label+`="`)) {
				return fail("not a series of %s", cur.name)
			}
		case name == cur.name+"_bucket":
			le, ok := strings.CutPrefix(labels, `le="`)
			if !ok || lastLE == "+Inf" || v < lastBucket {
				return fail("%s's buckets are not cumulative up to one +Inf", cur.name)
			}
			lastBucket, lastLE = v, strings.TrimSuffix(le, `"}`)
		case name == cur.name+"_sum":
		case name == cur.name+"_count":
			if lastLE != "+Inf" || v != lastBucket {
				return fail("%s_count is %v, its +Inf bucket %v", cur.name, v, lastBucket)
			}
		default:
			return fail("not a series of %s", cur.name)
		}
	}
	if cur != nil && unfinished() != "" {
		return nil, fmt.Errorf("%s has no %s", cur.name, unfinished())
	}
	for _, f := range families {
		if !listed[f.name] {
			return nil, fmt.Errorf("family %s is missing", f.name)
		}
	}
	return out, nil
}
