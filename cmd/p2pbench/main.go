// Command p2pbench is the end-to-end and per-layer benchmark of p2pbound.
//
// It drives five workloads (see workloads.go and README.md) through the
// library's public entry points in a closed loop, on one process with at
// most two OS threads running Go code, checks every verdict against the
// exact timer-table oracle (internal/naive), and prints its metrics as
// JSON. From the repository root:
//
//	bash cmd/p2pbench/run.sh --workload campus --seed 1 --seconds 10 --trace 0
//	bash cmd/p2pbench/run.sh --seed 2                  # every workload, one child process each
//	bash cmd/p2pbench/run.sh --compare base.jsonl new.jsonl
//
// A run prints two JSON lines. The first, {"report": ...}, carries the
// workload, the seed, the input digest, the oracle counts and every layer
// counter; the second, last line is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end metrics with --trace 0 and the
// per-layer metrics with --trace 1.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p2pbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("p2pbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := fs.Uint64("seed", 1, "input seed (1 is the default set, 2 the held-out set)")
	seconds := fs.Float64("seconds", 10, "run length: the measured run makes each workload's pass count × seconds / 10 passes")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the recorded spans to this file")
	quick := fs.Bool("quick", false, "smoke-test size: a short trace and one measured pass")
	compare := fs.Bool("compare", false, "compare two files of run output: --compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("--compare needs two files, got %d", fs.NArg())
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		quick:   *quick,
	}
	if *workload == "" {
		if *spans != "" {
			return fmt.Errorf("--spans needs --workload")
		}
		return runChildren(args, stdout)
	}
	w := findWorkload(*workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	// All load comes from this one process: the producer and any pipeline
	// workers share at most two Ps.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	rep, res, err := run(w, opts)
	if err != nil {
		return err
	}
	if *spans != "" && rep.spans != nil {
		if err := writeSpans(*spans, w, rep.spans); err != nil {
			return err
		}
	}
	return printRun(stdout, rep, res)
}

// printRun writes the report line and then the result line, which must be
// the last line of standard output.
func printRun(w io.Writer, rep *report, res *result) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(struct {
		Report *report `json:"report"`
	}{rep}); err != nil {
		return err
	}
	if err := enc.Encode(res); err != nil {
		return err
	}
	return bw.Flush()
}

// runChildren runs every workload in its own child process, one after the
// other, passing each child's output through and ending with one line
// that maps each workload to its result.
func runChildren(args []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	all := make(map[string]json.RawMessage, len(workloads))
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, append(append([]string{}, args...), "--workload", w.name)...)
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		if _, err := stdout.Write(out.Bytes()); err != nil {
			return err
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		all[w.name] = json.RawMessage(lines[len(lines)-1])
	}
	b, err := json.Marshal(map[string]any{"workloads": all})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

// writeSpans writes the traced run's spans as one JSON document: the layer
// names, then one [batch, layer, parent, start_ns, end_ns] row per span,
// layers and parents given as indexes into the names (parent -1 is none).
func writeSpans(path string, w *workload, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"workload\":%q,\"layers\":[", w.name)
	for i, l := range layerNames {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(l))
	}
	bw.WriteString("],\"spans\":[")
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "[%d,%d,%d,%d,%d]", s.batch, s.layer, s.parent, s.start, s.end)
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
