package trace

import (
	"encoding/json"
	"strconv"
	"time"
)

// SpanJSON is the export form of one span. Start/End are nanosecond
// offsets from the trace root's start, so exports under an injected fake
// clock are fully reproducible.
type SpanJSON struct {
	ID       string            `json:"id"`
	Kind     string            `json:"kind"`
	Name     string            `json:"name"`
	StartNS  int64             `json:"start_ns"`
	EndNS    int64             `json:"end_ns"`
	Err      string            `json:"error,omitempty"`
	Counters map[string]int64  `json:"counters,omitempty"`
	Labels   map[string]string `json:"labels,omitempty"`
	Children []*SpanJSON       `json:"children,omitempty"`
}

// JSON exports the full span tree — including the schedule-dependent
// labels the structural renderings omit — as indented JSON.
func (t *Trace) JSON() ([]byte, error) {
	return json.MarshalIndent(t.Export(), "", "  ")
}

// Export converts the span tree to its JSON form.
func (t *Trace) Export() *SpanJSON {
	epoch := t.Root.startTime()
	var conv func(s *Span, id string) *SpanJSON
	conv = func(s *Span, id string) *SpanJSON {
		s.mu.Lock()
		j := &SpanJSON{
			ID:      id,
			Kind:    s.kind.String(),
			Name:    s.name,
			StartNS: s.start.Sub(epoch).Nanoseconds(),
			Err:     s.err,
		}
		if !s.end.IsZero() {
			j.EndNS = s.end.Sub(epoch).Nanoseconds()
		}
		if len(s.counters) > 0 {
			j.Counters = make(map[string]int64, len(s.counters))
			for k, v := range s.counters {
				j.Counters[k] = v
			}
		}
		if len(s.labels) > 0 {
			j.Labels = make(map[string]string, len(s.labels))
			for k, v := range s.labels {
				j.Labels[k] = v
			}
		}
		children := append([]*Span(nil), s.children...)
		s.mu.Unlock()
		for i, c := range children {
			j.Children = append(j.Children, conv(c, id+"."+strconv.Itoa(i)))
		}
		return j
	}
	return conv(t.Root, t.Root.ID())
}

func (s *Span) startTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.start
}
