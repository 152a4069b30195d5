package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"

	"webbase/internal/core"
	"webbase/internal/ur"
)

// The line shapes, written and read here field by field. Field order is
// the byte order of every stream: "event" and "seq" first, then the
// kind's own fields (DESIGN.md §11). Each append function writes the
// bytes encoding/json wrote for the same line (reference_test.go keeps
// that codec) — HTML-escaped strings, an empty "object", "buffered" or
// "skipped" and a nil "degradation" left out — without the newline that
// ends it on the stream.

// AppendMeta appends the stream's first line.
func AppendMeta(dst []byte, m Meta) []byte {
	dst = append(dst, `{"event":"meta","seq":0,"request_id":`...)
	dst = appendString(dst, m.RequestID)
	dst = append(dst, `,"query":`...)
	dst = appendString(dst, m.Query)
	dst = append(dst, `,"schema":`...)
	dst = appendStrings(dst, m.Schema)
	dst = append(dst, `,"resume_token":`...)
	dst = appendString(dst, m.ResumeToken)
	return append(dst, '}')
}

// AppendDelivery appends one gate delivery as its line — unavailable,
// skipped or tuples — under the delivery's own sequence number. A tuples
// line carries one maximal object's new unique tuples or, for an ORDER BY
// / LIMIT query (index -1, buffered), the whole sorted answer. A tuple
// holding a non-finite float is refused with *json.UnsupportedValueError,
// and dst comes back as it was.
func AppendDelivery(dst []byte, d ur.ObjectDelivery) ([]byte, error) {
	kind := KindTuples
	switch {
	case d.Failure != nil:
		kind = KindUnavailable
	case d.Skipped != "":
		kind = KindSkipped
	}
	line := appendHead(dst, kind, d.Seq)
	line = append(line, `,"index":`...)
	line = strconv.AppendInt(line, int64(d.Index), 10)
	if kind != KindTuples || len(d.Object) > 0 {
		line = append(line, `,"object":`...)
		line = appendStrings(line, d.Object)
	}
	switch kind {
	case KindUnavailable:
		line = append(line, `,"failure":`...)
		line = appendFailure(line, *d.Failure)
	case KindSkipped:
		line = append(line, `,"reason":`...)
		line = appendString(line, d.Skipped)
	default:
		if d.Buffered {
			line = append(line, `,"buffered":true`...)
		}
		line = append(line, `,"count":`...)
		line = strconv.AppendInt(line, int64(len(d.Tuples)), 10)
		line = append(line, `,"tuples":`...)
		var err error
		if line, err = appendRows(line, d.Tuples); err != nil {
			return dst, err
		}
	}
	return append(line, '}'), nil
}

// AppendTrailer appends the line that ends a successful stream. Its stats
// object, one per stream, is encoding/json's.
func AppendTrailer(dst []byte, seq int, t Trailer) ([]byte, error) {
	line := appendHead(dst, KindTrailer, seq)
	line = append(line, `,"tuples":`...)
	line = strconv.AppendInt(line, int64(t.Tuples), 10)
	line = append(line, `,"objects":`...)
	line = strconv.AppendInt(line, int64(t.Objects), 10)
	if len(t.Skipped) > 0 {
		line = append(line, `,"skipped":`...)
		line = appendStrings(line, t.Skipped)
	}
	if g := t.Degradation; g != nil {
		line = append(line, `,"degradation":{"unavailable":`...)
		if g.Unavailable == nil {
			line = append(line, "null"...)
		} else {
			line = append(line, '[')
			for i, f := range g.Unavailable {
				if i > 0 {
					line = append(line, ',')
				}
				line = appendFailure(line, f)
			}
			line = append(line, ']')
		}
		line = append(line, `,"stale_served":`...)
		line = strconv.AppendInt(line, g.StaleServed, 10)
		line = append(line, `,"report":`...)
		line = appendString(line, g.Report)
		line = append(line, '}')
	}
	stats, err := json.Marshal(t.Stats)
	if err != nil {
		return dst, err
	}
	line = append(line, `,"stats":`...)
	line = append(line, stats...)
	return append(line, '}'), nil
}

// AppendError appends the line that ends a stream whose query failed
// after its 200 was committed.
func AppendError(dst []byte, seq int, body ErrorBody) []byte {
	dst = appendHead(dst, KindError, seq)
	dst = append(dst, `,"error":{"code":`...)
	dst = appendString(dst, body.Code)
	dst = append(dst, `,"status":`...)
	dst = strconv.AppendInt(dst, int64(body.Status), 10)
	dst = append(dst, `,"message":`...)
	dst = appendString(dst, body.Message)
	dst = append(dst, `,"request_id":`...)
	dst = appendString(dst, body.RequestID)
	return append(dst, "}}"...)
}

// AppendKeepalive appends the liveness probe: a seq-less line that is
// never acked by a resume and never counts toward sequence numbering.
func AppendKeepalive(dst []byte) []byte {
	return append(dst, `{"event":"keepalive"}`...)
}

func appendHead(dst []byte, kind string, seq int) []byte {
	dst = append(dst, `{"event":"`...)
	dst = append(dst, kind...)
	dst = append(dst, `","seq":`...)
	return strconv.AppendInt(dst, int64(seq), 10)
}

// appendStrings writes a list of strings, a nil one as null.
func appendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, s)
	}
	return append(dst, ']')
}

// appendFailure writes a ur.SiteFailure under its Go field names, which
// is how encoding/json wrote the untagged struct.
func appendFailure(dst []byte, f ur.SiteFailure) []byte {
	dst = append(dst, `{"Object":`...)
	dst = appendStrings(dst, f.Object)
	dst = append(dst, `,"Host":`...)
	dst = appendString(dst, f.Host)
	dst = append(dst, `,"Kind":`...)
	dst = appendString(dst, f.Kind)
	dst = append(dst, `,"Err":`...)
	dst = appendString(dst, f.Err)
	return append(dst, '}')
}

// Event is one decoded line. Kind says which of the other fields is set:
// Meta for KindMeta; Delivery for KindTuples, KindUnavailable and
// KindSkipped; Trailer for KindTrailer; Error for KindError; none for
// KindKeepalive or for a kind this version does not know, which Decode
// hands back by name rather than refusing. Seq is the line's sequence
// number on a delivery (where Delivery.Seq holds it too), a trailer or an
// error, and 0 on any other line.
type Event struct {
	Kind     string
	Seq      int
	Meta     Meta
	Delivery ur.ObjectDelivery
	Trailer  *Trailer
	Error    ErrorBody
}

// Decode reads one line of a stream. It takes one string copy of line
// and keeps nothing of line itself, so line may be a reader's buffer.
//
// Keys may come in any order; a key the line's kind does not have is
// checked and skipped. Two things differ from encoding/json reading the
// same line into the line's struct (wire's FuzzDecode names them): a key
// is matched exactly, not case-folded, and a repeated key's last value
// wins whole, where encoding/json decodes a repeated object into the one
// before it. A trailer must carry its stats.
func Decode(line []byte) (Event, error) {
	d := decoder{s: string(line)}
	ev, err := d.line()
	if err == nil && !d.done() {
		err = errSyntax
	}
	if err != nil {
		return Event{}, fmt.Errorf("undecodable event line %q: %w", truncate(line, 200), err)
	}
	return ev, nil
}

var errStop = errors.New("stop")

// kind finds the value of the line's "event" key and leaves the decoder
// where it was. The server writes that key first; a line that puts it
// later is walked up to it once more.
func (d *decoder) kind() (string, error) {
	start := d.i
	var kind string
	err := d.object(func(key string) error {
		if key != "event" {
			return d.skip(1)
		}
		var err error
		if kind, err = d.str(); err == nil {
			err = errStop
		}
		return err
	})
	d.i = start
	switch {
	case err == errStop && kind != "":
		return kind, nil
	case err == nil || err == errStop:
		return "", errors.New("no event kind")
	}
	return "", err
}

// line reads the whole line as the kind its "event" key names.
func (d *decoder) line() (Event, error) {
	kind, err := d.kind()
	if err != nil {
		return Event{}, err
	}
	ev := Event{Kind: kind}
	switch kind {
	case KindUnavailable:
		ev.Delivery.Failure = new(ur.SiteFailure)
	case KindTrailer:
		ev.Trailer = new(Trailer)
	}
	count := 0
	err = d.object(func(key string) error {
		if key == "event" {
			k, err := d.str()
			if err == nil && k != kind {
				err = fmt.Errorf("a second event %q", k)
			}
			return err
		}
		ok, err := d.field(&ev, &count, key)
		if !ok {
			return d.skip(1)
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", key, err)
		}
		return err
	})
	if err != nil {
		return Event{}, err
	}
	switch kind {
	case KindMeta:
		ev.Seq = 0
	case KindTuples:
		if ev.Delivery.Tuples == nil {
			ev.Delivery.Tuples = rows{}
		}
		if count != len(ev.Delivery.Tuples) {
			return Event{}, fmt.Errorf("count %d over %d tuples", count, len(ev.Delivery.Tuples))
		}
		ev.Delivery.Seq = ev.Seq
	case KindUnavailable, KindSkipped:
		ev.Delivery.Seq = ev.Seq
	case KindTrailer:
		if ev.Trailer.Stats == nil {
			return Event{}, errors.New("trailer without stats")
		}
	}
	return ev, nil
}

// field reads the value under key if the line's kind has that key, and
// reports whether it did. A tuples line's count goes to count.
func (d *decoder) field(ev *Event, count *int, key string) (ok bool, err error) {
	switch ev.Kind {
	case KindMeta, KindTuples, KindUnavailable, KindSkipped, KindError, KindTrailer:
		if key == "seq" {
			ev.Seq, err = d.int()
			return true, err
		}
	default:
		// A keepalive, or a kind this version does not know: no field is
		// read.
		return false, nil
	}
	del, t := &ev.Delivery, ev.Trailer
	switch ev.Kind {
	case KindMeta:
		switch key {
		case "request_id":
			ev.Meta.RequestID, err = d.str()
		case "query":
			ev.Meta.Query, err = d.str()
		case "schema":
			ev.Meta.Schema, err = d.strings()
		case "resume_token":
			ev.Meta.ResumeToken, err = d.str()
		default:
			return false, nil
		}
	case KindError:
		if key != "error" {
			return false, nil
		}
		ev.Error, err = d.errorBody()
	case KindTrailer:
		switch key {
		case "tuples":
			t.Tuples, err = d.int()
		case "objects":
			t.Objects, err = d.int()
		case "skipped":
			t.Skipped, err = d.strings()
		case "degradation":
			t.Degradation, err = d.degradation()
		case "stats":
			t.Stats, err = d.stats()
		default:
			return false, nil
		}
	default:
		switch {
		case key == "index":
			del.Index, err = d.int()
		case key == "object":
			del.Object, err = d.strings()
		case key == "failure" && ev.Kind == KindUnavailable:
			*del.Failure, err = d.failure()
		case key == "reason" && ev.Kind == KindSkipped:
			del.Skipped, err = d.str()
		case key == "buffered" && ev.Kind == KindTuples:
			del.Buffered, err = d.bool()
		case key == "count" && ev.Kind == KindTuples:
			*count, err = d.int()
		case key == "tuples" && ev.Kind == KindTuples:
			del.Tuples, err = d.rows()
		default:
			return false, nil
		}
	}
	return true, err
}

// failure reads a ur.SiteFailure, whose keys are its Go field names.
func (d *decoder) failure() (f ur.SiteFailure, err error) {
	err = d.object(func(key string) (err error) {
		switch key {
		case "Object":
			f.Object, err = d.strings()
		case "Host":
			f.Host, err = d.str()
		case "Kind":
			f.Kind, err = d.str()
		case "Err":
			f.Err, err = d.str()
		default:
			err = d.skip(1)
		}
		return err
	})
	return f, err
}

func (d *decoder) errorBody() (b ErrorBody, err error) {
	err = d.object(func(key string) (err error) {
		switch key {
		case "code":
			b.Code, err = d.str()
		case "status":
			b.Status, err = d.int()
		case "message":
			b.Message, err = d.str()
		case "request_id":
			b.RequestID, err = d.str()
		default:
			err = d.skip(1)
		}
		return err
	})
	return b, err
}

// degradation reads a trailer's degradation report, or null as none.
func (d *decoder) degradation() (*Degradation, error) {
	if d.null() {
		return nil, nil
	}
	g := new(Degradation)
	err := d.object(func(key string) (err error) {
		switch key {
		case "unavailable":
			g.Unavailable = nil
			if d.null() {
				return nil
			}
			g.Unavailable = []ur.SiteFailure{}
			return d.array(func() error {
				f, err := d.failure()
				g.Unavailable = append(g.Unavailable, f)
				return err
			})
		case "stale_served":
			var n int
			n, err = d.int()
			g.StaleServed = int64(n)
		case "report":
			g.Report, err = d.str()
		default:
			err = d.skip(1)
		}
		return err
	})
	return g, err
}

// stats reads a trailer's stats through encoding/json: there is one per
// stream. null is none.
func (d *decoder) stats() (*core.QueryStats, error) {
	if d.null() {
		return nil, nil
	}
	start := d.i
	if err := d.skip(1); err != nil {
		return nil, err
	}
	qs := new(core.QueryStats)
	if err := json.Unmarshal([]byte(d.s[start:d.i]), qs); err != nil {
		return nil, err
	}
	return qs, nil
}
