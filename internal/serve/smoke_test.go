//go:build smoke

package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/ddg"
	"repro/internal/machines"
	"repro/internal/sched"
)

// TestServeSmoke is the end-to-end smoke run behind `make serve-smoke`:
// build the real mdserve binary, start it on an ephemeral port, drive
// one reduce, one batch, one batch schedule op verified against the
// original description, a pipelined scheduling-session stream (create,
// 100 NDJSON ops, idle expiry), a conversational stream (each op sent
// after the previous answer arrives) and one metrics scrape over real
// TCP, then SIGTERM it and require a clean drain
// (exit code 0). Build-tagged so `go test ./...` stays fast.
func TestServeSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mdserve")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/mdserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build cmd/mdserve: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-preload", "example,cydra5-subset", "-cache", "8", "-session-ttl", "1s")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The daemon prints its resolved address once the listener is up.
	lines := bufio.NewScanner(stdout)
	var base string
	for lines.Scan() {
		if _, addr, ok := strings.Cut(lines.Text(), "listening on "); ok {
			base = addr
			break
		}
	}
	if base == "" {
		t.Fatalf("mdserve never announced its address: %v", lines.Err())
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained

	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path string, body any) []byte {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, out)
		}
		return out
	}

	// One reduce: the Figure 1 example in MDL source form.
	const exampleMDL = `machine smoke
resources bus0 bus1 alu0 alu1 wb

op add latency 2 {
  alu0: 0
  bus0: 0
  wb: 2
  alt {
    alu1: 0
    bus1: 0
    wb: 2
  }
}
op store latency 1 {
  bus0: 0
  bus1: 1
}
`
	var red ReduceResponse
	if err := json.Unmarshal(post("/v1/reduce", ReduceRequest{MDL: exampleMDL}), &red); err != nil {
		t.Fatalf("reduce response: %v", err)
	}
	if red.Name != "smoke" || red.ReducedUsages > red.Usages {
		t.Fatalf("implausible reduce response: %+v", red)
	}

	// One batch against it.
	var batch BatchResponse
	if err := json.Unmarshal(post("/v1/batch", BatchRequest{
		Machine: "smoke",
		Ops: []BatchOp{
			{Fn: "check", Op: 0, Cycle: 0},
			{Fn: "assign", Op: 0, Cycle: 0, ID: 1},
			{Fn: "check_with_alt", Op: 0, Cycle: 0},
			{Fn: "free", Op: 0, Cycle: 0, ID: 1},
		},
	}), &batch); err != nil {
		t.Fatalf("batch response: %v", err)
	}
	if len(batch.Results) != 4 || batch.Results[0].OK == nil || !*batch.Results[0].OK {
		t.Fatalf("implausible batch response: %+v", batch)
	}

	// A batch schedule op on the preloaded Cydra 5 subset: the served
	// schedule must verify against the original description, and its
	// MII is the original machine's.
	subset := machines.Cydra5Subset()
	loop := &LoopSpec{
		Ops:   []int{0, 2, 1, 1, 0},
		Edges: []LoopEdge{{From: 0, To: 1, Delay: 2}, {From: 1, To: 2, Delay: 1}, {From: 1, To: 3, Delay: 1}, {From: 4, To: 0, Delay: 1, Dist: 1}},
	}
	var sbatch BatchResponse
	if err := json.Unmarshal(post("/v1/batch", BatchRequest{
		Machine: "cydra5-subset",
		Ops:     []BatchOp{{Fn: "schedule", Loop: loop}},
	}), &sbatch); err != nil {
		t.Fatalf("schedule batch response: %v", err)
	}
	sr := sbatch.Results[0]
	if sr.OK == nil || !*sr.OK || sr.II == nil || sr.MII == nil {
		t.Fatalf("schedule op not scheduled: %+v", sr)
	}
	g := loopGraph(loop)
	if want := g.MII(ddg.MachineUsage{M: subset}); *sr.MII != want {
		t.Fatalf("schedule op mii %d, want the original machine's %d", *sr.MII, want)
	}
	if err := sched.VerifySchedule(g, subset.Expand(), sched.Result{OK: true, II: *sr.II, Time: sr.Times, Alt: sr.Alts}); err != nil {
		t.Fatalf("served schedule fails against the original description: %v", err)
	}

	// A stateful scheduling session: create it, stream 100 ops through
	// the NDJSON conversation mode, and check every line came back plus
	// the done trailer with the right op count.
	var si SessionInfo
	if err := json.Unmarshal(post("/v1/sessions", SessionRequest{Machine: "smoke"}), &si); err != nil {
		t.Fatalf("session create response: %v", err)
	}
	var ndjson bytes.Buffer
	const streamOps = 100
	for i := 0; i < streamOps; i++ {
		op, err := json.Marshal(BatchOp{Fn: "check", Op: 0, Cycle: i % 16})
		if err != nil {
			t.Fatal(err)
		}
		ndjson.Write(op)
		ndjson.WriteByte('\n')
	}
	sresp, err := client.Post(base+"/v1/sessions/"+si.SessionID+"/stream", "application/x-ndjson", &ndjson)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var streamLines [][]byte
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		streamLines = append(streamLines, append([]byte(nil), sc.Bytes()...))
	}
	sresp.Body.Close()
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || len(streamLines) != streamOps+1 {
		t.Fatalf("stream: status %d, %d lines (want %d results + trailer)", sresp.StatusCode, len(streamLines), streamOps)
	}
	var trailer struct {
		Done bool `json:"done"`
		Ops  int  `json:"ops"`
	}
	if err := json.Unmarshal(streamLines[streamOps], &trailer); err != nil || !trailer.Done || trailer.Ops != streamOps {
		t.Fatalf("stream trailer: %s (err %v)", streamLines[streamOps], err)
	}

	// A conversational stream on a second session: each op is sent only
	// after the previous answer has been read off the socket, so the
	// server must flush every line before it waits for the next op.
	var conv SessionInfo
	if err := json.Unmarshal(post("/v1/sessions", SessionRequest{Machine: "smoke"}), &conv); err != nil {
		t.Fatalf("session create response: %v", err)
	}
	pr, pw := io.Pipe()
	creq, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+conv.SessionID+"/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := client.Do(creq)
	if err != nil {
		t.Fatalf("conversational stream: %v", err)
	}
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("conversational stream: status %d", cresp.StatusCode)
	}
	crd := bufio.NewReader(cresp.Body)
	const convOps = 20
	for i := 0; i < convOps; i++ {
		op, _ := json.Marshal(BatchOp{Fn: "check", Op: 0, Cycle: i})
		if _, err := pw.Write(append(op, '\n')); err != nil {
			t.Fatalf("conversational op %d: %v", i, err)
		}
		line, err := crd.ReadBytes('\n')
		if err != nil {
			t.Fatalf("conversational op %d: reading answer: %v", i, err)
		}
		if string(line) != "{\"ok\":true}\n" {
			t.Fatalf("conversational op %d: answer %q", i, line)
		}
	}
	pw.Close()
	line, err := crd.ReadBytes('\n')
	cresp.Body.Close()
	if err != nil {
		t.Fatalf("conversational stream trailer: %v", err)
	}
	if err := json.Unmarshal(line, &trailer); err != nil || !trailer.Done || trailer.Ops != convOps {
		t.Fatalf("conversational stream trailer: %s (err %v)", line, err)
	}

	// Idle past the 1s TTL the session expires: first probe sees
	// 410 Gone (lazy expiry), after which the id is unknown.
	time.Sleep(1200 * time.Millisecond)
	gresp, err := client.Get(base + "/v1/sessions/" + si.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, gresp.Body)
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusGone {
		t.Fatalf("expired session probe: status %d, want 410", gresp.StatusCode)
	}

	// Metrics scrape: -preload and the requests above must have left
	// serve-scope counters behind.
	resp, err := client.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", resp.StatusCode, snap)
	}
	if !bytes.Contains(snap, []byte("serve.reduce.requests")) {
		t.Fatalf("metrics snapshot missing serve counters: %s", snap)
	}

	// Clean shutdown: SIGTERM, drain, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("mdserve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("mdserve did not drain within 15s of SIGTERM")
	}
}
