package telemetry

import "sync"

// TraceEvent is one completed request as seen by a server: which
// operation ran under which request ID, how long it took, and how it
// ended. Events are what `nasdctl stats -trace` prints.
type TraceEvent struct {
	RequestID uint64 `json:"request_id"` // 0 = client did not trace
	Op        string `json:"op"`
	Status    string `json:"status"`
	DurNanos  int64  `json:"dur_ns"`
	Bytes     int    `json:"bytes"`
	UnixNano  int64  `json:"unix_ns"` // completion time
}

// TraceLog is a bounded ring of recent trace events. Recording is
// cheap (one mutexed slot write), so a drive can log every request it
// serves and a debugging session can ask for the tail.
type TraceLog struct {
	mu     sync.Mutex
	events []TraceEvent
	next   int
	filled bool
}

// NewTraceLog returns a ring holding the most recent capacity events.
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{events: make([]TraceEvent, capacity)}
}

// Add records one event, evicting the oldest when full.
func (l *TraceLog) Add(e TraceEvent) {
	l.mu.Lock()
	l.events[l.next] = e
	l.next++
	if l.next == len(l.events) {
		l.next = 0
		l.filled = true
	}
	l.mu.Unlock()
}

// Recent returns up to n most recent events, oldest first.
func (l *TraceLog) Recent(n int) []TraceEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	size := l.next
	if l.filled {
		size = len(l.events)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]TraceEvent, 0, n)
	start := l.next - n
	if start < 0 {
		start += len(l.events)
	}
	for i := 0; i < n; i++ {
		out = append(out, l.events[(start+i)%len(l.events)])
	}
	return out
}
