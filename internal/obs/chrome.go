package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// chromeEvent is one Chrome trace_event record. The exporter emits
// complete events ("ph": "X") for spans, metadata events ("ph": "M") for
// thread names, and counter events ("ph": "C") for tracer counters — the
// subset chrome://tracing and Perfetto load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// rootOf walks a span's parent chain inside byID and returns the root
// ancestor's id (the span's own id when it has no registered parent).
func rootOf(s *Span, byID map[int64]*Span) int64 {
	for s.parent != 0 {
		p, ok := byID[s.parent]
		if !ok {
			break
		}
		s = p
	}
	return s.id
}

// WriteChromeTrace exports every ended span (and the counters) as Chrome
// trace_event JSON loadable in chrome://tracing or Perfetto. Each root
// span and its descendants render on their own thread row, so concurrent
// pipelines (one per app, one per simulation) do not overlap visually.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.snapshot()
	byID := make(map[int64]*Span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	// Assign one tid per root ancestor, in (start, id) order of the roots.
	tids := make(map[int64]int)
	var events []chromeEvent
	for _, s := range spans {
		root := rootOf(s, byID)
		tid, ok := tids[root]
		if !ok {
			tid = len(tids) + 1
			tids[root] = tid
			rs := byID[root]
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: 1, TID: tid,
				Args: map[string]any{"name": fmt.Sprintf("%s-%d", rs.track, root)},
			})
		}
		dur := float64(s.end-s.start) / float64(time.Microsecond)
		ev := chromeEvent{
			Name: s.name,
			Cat:  s.track,
			Ph:   "X",
			TS:   float64(s.start) / float64(time.Microsecond),
			Dur:  &dur,
			PID:  1,
			TID:  tid,
		}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	var maxTS float64
	for _, ev := range events {
		if ev.TS > maxTS {
			maxTS = ev.TS
		}
	}
	for _, cv := range t.Counters() {
		events = append(events, chromeEvent{
			Name: cv.Name, Ph: "C", TS: maxTS, PID: 1, TID: 0,
			Args: map[string]any{"value": cv.Value},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}
