package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/query"
)

// handleSessionStream is the streaming batch mode of a scheduling
// session: POST /v1/sessions/{id}/stream with an NDJSON body — one
// BatchOp JSON object per line — answered with one NDJSON line per op,
// so a remote scheduler holds a wire-speed conversation with its live
// module instead of paying a request round-trip of framing per batch.
// Answers are flushed before the server would wait for input: when the
// request buffer holds no complete next op line. A conversational
// client (one op, then wait for its answer) therefore gets every line
// as soon as it is computed, while a pipelined body of N ops costs a
// few flushes instead of N.
//
// Response framing (Content-Type application/x-ndjson):
//
//   - one result line per op line, byte-identical to the JSON encoding
//     of the equivalent BatchResult: {}, {"ok":true},
//     {"ok":true,"alt_op":2,"cycle":5}, {"evicted":[3]}, ...
//   - on an invalid op: one terminal {"error":"...","index":i} line;
//     ops before i remain applied (the session is stateful).
//   - on clean input EOF: one terminal
//     {"done":true,"ops":N,"counters":{...}} line carrying the
//     session's cumulative work-unit counters.
//
// Blank lines are skipped. The stream is deadline-gated (the server's
// per-request deadline covers the whole conversation) and admitted
// through the gate's reserved stream sub-quota (parallel.Gate
// AcquireStream), so long conversations can never occupy every
// admission slot. Execution is serialized per session; ops and results
// are bounded by Config.MaxStreamOps and Config.MaxBodyBytes.
func (s *Server) handleSessionStream(w http.ResponseWriter, r *http.Request) {
	obs.Inc("serve.stream.requests")
	start := time.Now()
	defer func() { obs.Observe("serve.stream.latency", time.Since(start).Microseconds()) }()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	if err := s.gate.AcquireStream(ctx); err != nil {
		obs.Inc("serve.rejected")
		writeErr(w, http.StatusTooManyRequests, "server at capacity: stream admission deadline exceeded")
		return
	}
	defer s.gate.ReleaseStream()
	obs.Inc("serve.admitted")
	r = r.WithContext(ctx)
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)

	sess, herr := s.lookupSession(r.PathValue("id"))
	if herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	if herr := sess.acquire(r); herr != nil {
		writeErr(w, herr.status, herr.msg)
		return
	}
	defer sess.release()

	// HTTP/1.x half-closes the request body once the response starts;
	// a stream reads ops and writes results interleaved, so it needs
	// full-duplex (a no-op where unsupported, e.g. test recorders).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	out := bufio.NewWriter(w)
	// flushLine pushes every completed response line onto the wire.
	flushLine := func() {
		out.Flush()
		rc.Flush()
	}
	// Push the 200 header onto the wire before reading any op: a
	// conversational client is allowed to wait for it before sending.
	flushLine()
	// Once the header is written the status is fixed at 200; protocol
	// errors travel as terminal NDJSON lines instead.
	fail := func(index int, msg string) {
		line, _ := json.Marshal(map[string]any{"error": msg, "index": index})
		out.Write(line)
		out.WriteByte('\n')
		flushLine()
	}

	in := bufio.NewReader(r.Body)
	var (
		op      BatchOp
		res     opResult
		buf     []byte // reused result-line buffer; zero steady-state allocs
		n       int
		errLine error
		pending bool // result lines written since the last flush
	)
	for {
		if err := ctx.Err(); err != nil {
			fail(n, fmt.Sprintf("request deadline exceeded at op %d", n))
			return
		}
		// Flush before a read that could block on the client: unless
		// the reader already holds a complete next line (Peek of the
		// buffered bytes never reads), the client may be waiting for
		// these answers before it sends more.
		if pending {
			if next, _ := in.Peek(in.Buffered()); bytes.IndexByte(next, '\n') < 0 {
				flushLine()
				pending = false
			}
		}
		var line []byte
		line, errLine = in.ReadBytes('\n')
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			if errLine != nil {
				break // clean EOF (or body error) with no pending op
			}
			continue // blank line between ops
		}
		if n >= s.cfg.MaxStreamOps {
			fail(n, fmt.Sprintf("stream exceeds %d ops", s.cfg.MaxStreamOps))
			return
		}
		op = BatchOp{}
		if err := json.Unmarshal(line, &op); err != nil {
			fail(n, fmt.Sprintf("op %d: invalid JSON: %v", n, err))
			return
		}
		if herr := sess.x.exec(n, &op, &res); herr != nil {
			fail(n, herr.msg)
			return
		}
		buf = res.appendJSON(buf[:0])
		buf = append(buf, '\n')
		out.Write(buf)
		pending = true
		n++
		if errLine != nil {
			break // the final op arrived without a trailing newline
		}
	}
	if errLine != nil && errLine != io.EOF {
		// Body read error (cap exceeded, client gone): report and stop.
		fail(n, fmt.Sprintf("stream read: %v", errLine))
		return
	}
	sess.ops.Add(int64(n))
	obs.Add("serve.stream.ops", int64(n))
	sess.touch(s.now())
	trailer, _ := json.Marshal(streamTrailer{Done: true, Ops: n, Backend: sess.x.backend, Counters: *sess.x.mod.Counters()})
	out.Write(trailer)
	out.WriteByte('\n')
	flushLine()
}

// streamTrailer is the terminal line of a successful stream: the op
// count answered on this request, the concrete backend serving the
// session's module, and the session's cumulative counters.
type streamTrailer struct {
	Done     bool           `json:"done"`
	Ops      int            `json:"ops"`
	Backend  string         `json:"backend"`
	Counters query.Counters `json:"counters"`
}
