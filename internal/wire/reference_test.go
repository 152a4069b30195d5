package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"webbase/internal/relation"
	"webbase/internal/ur"
)

// The line codec before wire wrote and read its own lines: a struct per
// line shape for encoding/json, and a tuples line's rows boxed into an
// [][]any, read back from rows decoded with json.Number. FuzzTupleRows
// holds rows to it, FuzzLineCodec and FuzzDecode the append functions and
// Decode, and TestGoldenLines holds it to the literal lines.

// EncodeTuples renders tuples as JSON arrays of native values (null,
// string, number, bool), positionally aligned with the meta schema.
func EncodeTuples(ts []relation.Tuple) [][]any {
	out := make([][]any, len(ts))
	for i, t := range ts {
		row := make([]any, len(t))
		for j, v := range t {
			switch v.Kind() {
			case relation.KindString:
				row[j] = v.Str()
			case relation.KindInt:
				row[j] = v.IntVal()
			case relation.KindFloat:
				row[j] = v.FloatVal()
			case relation.KindBool:
				row[j] = v.BoolVal()
			default:
				row[j] = nil
			}
		}
		out[i] = row
	}
	return out
}

// DecodeTuples is EncodeTuples' inverse over rows decoded with
// json.Number. Numeric kinds normalize over the wire: a float with an
// integral value (5.0) encodes as "5" and decodes as an Int — the JSON
// number grammar carries no float/int distinction for integral values.
func DecodeTuples(rows [][]any) ([]relation.Tuple, error) {
	out := make([]relation.Tuple, len(rows))
	for i, row := range rows {
		t := make(relation.Tuple, len(row))
		for j, v := range row {
			switch x := v.(type) {
			case nil:
				t[j] = relation.Null()
			case string:
				t[j] = relation.String(x)
			case bool:
				t[j] = relation.Bool(x)
			case json.Number:
				if n, err := x.Int64(); err == nil && !strings.ContainsAny(x.String(), ".eE") {
					t[j] = relation.Int(n)
				} else {
					f, err := x.Float64()
					if err != nil {
						return nil, fmt.Errorf("bad number %q in tuple", x.String())
					}
					t[j] = relation.Float(f)
				}
			default:
				return nil, fmt.Errorf("unexpected tuple value of type %T", v)
			}
		}
		out[i] = t
	}
	return out, nil
}

// referenceRows is how a tuples line's rows used to be read: the value
// decoded into [][]any with json.Number, then DecodeTuples. The validity
// check stands in for the rest of the line, which json.Unmarshal checks
// before any field decodes.
func referenceRows(raw []byte) ([]relation.Tuple, error) {
	if !json.Valid(raw) {
		return nil, errors.New("not JSON")
	}
	var rs [][]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&rs); err != nil {
		return nil, err
	}
	return DecodeTuples(rs)
}

// refRows is a tuples line's rows through the [][]any codec.
type refRows []relation.Tuple

func (rs refRows) MarshalJSON() ([]byte, error) { return json.Marshal(EncodeTuples(rs)) }

func (rs *refRows) UnmarshalJSON(raw []byte) error {
	ts, err := referenceRows(raw)
	*rs = ts
	return err
}

// The line shapes. Field order here is the byte order of every stream:
// the embedded head first, then the kind's own fields as declared. They
// are separate structs and not one flat event because two names mean two
// things: "tuples" is the rows of a tuples line and a count in the
// trailer, and "skipped" is a kind and a trailer list.

// kind is the whole of a keepalive line, and what referenceDecode reads
// first off any line.
type kind struct {
	Event string `json:"event"`
}

type head struct {
	Event string `json:"event"`
	Seq   int    `json:"seq"`
}

type metaLine struct {
	head // seq is always 0
	Meta
}

type tuplesLine struct {
	head
	Index    int      `json:"index"`
	Object   []string `json:"object,omitempty"`
	Buffered bool     `json:"buffered,omitempty"`
	Count    int      `json:"count"`
	Tuples   refRows  `json:"tuples"`
}

type unavailableLine struct {
	head
	Index   int            `json:"index"`
	Object  []string       `json:"object"`
	Failure ur.SiteFailure `json:"failure"`
}

type skippedLine struct {
	head
	Index  int      `json:"index"`
	Object []string `json:"object"`
	Reason string   `json:"reason"`
}

type errorLine struct {
	head
	Error ErrorBody `json:"error"`
}

type trailerLine struct {
	head
	Trailer
}

func MetaLine(m Meta) any { return metaLine{head{KindMeta, 0}, m} }

func DeliveryLine(d ur.ObjectDelivery) any {
	switch {
	case d.Failure != nil:
		return unavailableLine{head{KindUnavailable, d.Seq}, d.Index, d.Object, *d.Failure}
	case d.Skipped != "":
		return skippedLine{head{KindSkipped, d.Seq}, d.Index, d.Object, d.Skipped}
	}
	return tuplesLine{head{KindTuples, d.Seq}, d.Index, d.Object, d.Buffered, len(d.Tuples), d.Tuples}
}

func TrailerLine(seq int, t Trailer) any { return trailerLine{head{KindTrailer, seq}, t} }

func ErrorLine(seq int, body ErrorBody) any { return errorLine{head{KindError, seq}, body} }

func KeepaliveLine() any { return kind{KindKeepalive} }

// referenceDecode is how a line used to be read: once into kind, then
// into its kind's struct.
func referenceDecode(line []byte) (Event, error) {
	var k kind
	if err := json.Unmarshal(line, &k); err != nil || k.Event == "" {
		return Event{}, fmt.Errorf("undecodable event line %q", truncate(line, 200))
	}
	ev := Event{Kind: k.Event}
	var err error
	switch k.Event {
	case KindMeta:
		var l metaLine
		err = json.Unmarshal(line, &l)
		ev.Meta = l.Meta
	case KindTuples:
		var l tuplesLine
		if err = json.Unmarshal(line, &l); err == nil && l.Count != len(l.Tuples) {
			err = fmt.Errorf("count %d over %d tuples", l.Count, len(l.Tuples))
		}
		if l.Tuples == nil {
			l.Tuples = refRows{}
		}
		ev.Seq, ev.Delivery = l.Seq, ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Buffered: l.Buffered, Tuples: l.Tuples}
	case KindUnavailable:
		var l unavailableLine
		err = json.Unmarshal(line, &l)
		ev.Seq, ev.Delivery = l.Seq, ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Failure: &l.Failure}
	case KindSkipped:
		var l skippedLine
		err = json.Unmarshal(line, &l)
		ev.Seq, ev.Delivery = l.Seq, ur.ObjectDelivery{Seq: l.Seq, Index: l.Index, Object: l.Object, Skipped: l.Reason}
	case KindTrailer:
		var l trailerLine
		err = json.Unmarshal(line, &l)
		ev.Seq, ev.Trailer = l.Seq, &l.Trailer
	case KindError:
		var l errorLine
		err = json.Unmarshal(line, &l)
		ev.Seq, ev.Error = l.Seq, l.Error
	}
	if err != nil {
		return Event{}, fmt.Errorf("%s: %w", k.Event, err)
	}
	return ev, nil
}
