package obs

// Structured, trace-correlated logging for every daemon and tool in the
// stack. The paper's study had to reconstruct failure stories from ad-hoc
// printf logs; here every log line is a slog record carrying the same
// trace/depot/verb vocabulary the event stream and the wire TRACE verb
// use, so logs join the cross-layer timeline instead of living beside it.
//
// NewLogger builds the process logger: human-readable text on stderr by
// default, JSON behind a flag, and — when a FlightRecorder is attached —
// every record is also retained in the in-memory ring that postmortem
// bundles are cut from.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// Shared attribute keys. Using the same strings everywhere is what makes
// `grep trace=<id>` (or a structured query) return one joined story.
const (
	KeyTrace     = "trace"     // trace ID, as propagated by the TRACE verb
	KeyDepot     = "depot"     // depot address host:port
	KeyVerb      = "verb"      // IBP/registry/NWS protocol verb
	KeyComponent = "component" // emitting daemon or tool
)

// LogConfig parameterizes NewLogger. The zero value logs human-readable
// text to stderr at Info level.
type LogConfig struct {
	// W receives the rendered records (default os.Stderr).
	W io.Writer
	// JSON switches from the human-readable text handler to one JSON
	// object per line (the -log-json flag on every daemon).
	JSON bool
	// Component is bound to every record as component=<name>.
	Component string
	// Recorder, when set, additionally retains every record (regardless
	// of level) in the flight-recorder ring for postmortem bundles.
	Recorder *FlightRecorder
}

// NewLogger builds the process logger described by cfg.
func NewLogger(cfg LogConfig) *slog.Logger {
	w := cfg.W
	if w == nil {
		w = os.Stderr
	}
	var h slog.Handler = slog.NewTextHandler(w, nil)
	if cfg.JSON {
		h = slog.NewJSONHandler(w, nil)
	}
	if cfg.Recorder != nil {
		h = &teeHandler{inner: h, rec: cfg.Recorder}
	}
	l := slog.New(h)
	if cfg.Component != "" {
		l = l.With(KeyComponent, cfg.Component)
	}
	return l
}

// NopLogger returns a logger that discards everything — the default for
// library components whose Logger field is left nil.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// WithTrace binds a span context's trace ID to the logger, so every
// subsequent record carries trace=<id> and lands in the right flight-
// recorder slice. Invalid contexts return the logger unchanged.
func WithTrace(l *slog.Logger, sc SpanContext) *slog.Logger {
	if l == nil || !sc.Valid() {
		return l
	}
	return l.With(KeyTrace, sc.TraceID)
}

// Logf adapts a structured logger to the printf-style Logf callbacks some
// components still accept (stackmon's transition log, for example).
func Logf(l *slog.Logger) func(format string, args ...any) {
	if l == nil {
		return func(string, ...any) {}
	}
	return func(format string, args ...any) {
		if len(args) == 0 {
			l.Info(format)
			return
		}
		l.Info(fmt.Sprintf(format, args...))
	}
}

// teeHandler copies every record into the flight recorder before (and
// regardless of) rendering it. Attrs bound via With() are folded in so a
// derived logger's trace/depot context survives into the ring.
type teeHandler struct {
	inner slog.Handler
	rec   *FlightRecorder
	bound []slog.Attr
}

func (h *teeHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	// The recorder retains below the rendering threshold on purpose:
	// debug detail is exactly what a postmortem wants.
	return true
}

func (h *teeHandler) Handle(ctx context.Context, r slog.Record) error {
	e := Entry{Kind: KindLog, Time: r.Time, Msg: r.Message, Level: r.Level.String()}
	grab := func(a slog.Attr) {
		switch a.Key {
		case KeyTrace:
			e.Trace = a.Value.String()
		case KeyDepot:
			e.Depot = a.Value.String()
		case KeyVerb:
			e.Verb = a.Value.String()
		case KeyComponent:
			// Redundant inside a single-process ring.
		default:
			e.Attrs = append(e.Attrs, a.Key+"="+a.Value.String())
		}
	}
	for _, a := range h.bound {
		grab(a)
	}
	r.Attrs(func(a slog.Attr) bool { grab(a); return true })
	h.rec.Add(e)
	if !h.inner.Enabled(ctx, r.Level) {
		return nil
	}
	return h.inner.Handle(ctx, r)
}

func (h *teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	bound := make([]slog.Attr, 0, len(h.bound)+len(attrs))
	bound = append(bound, h.bound...)
	bound = append(bound, attrs...)
	return &teeHandler{inner: h.inner.WithAttrs(attrs), rec: h.rec, bound: bound}
}

func (h *teeHandler) WithGroup(name string) slog.Handler {
	return &teeHandler{inner: h.inner.WithGroup(name), rec: h.rec, bound: h.bound}
}
