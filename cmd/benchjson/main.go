// Command benchjson converts `go test -bench` output on stdin into a
// JSON document, so CI can archive benchmark trajectories (per-scheme
// ns/op, allocs/op, simulated makespan) as machine-readable artifacts.
//
// Usage:
//
//	go test -bench='^BenchmarkScale(Plan)?$' -benchmem -benchtime=1x | benchjson -o BENCH_scale.json
//
// Non-benchmark lines (goos/goarch headers, PASS, ok) pass through
// untouched to stdout so the human-readable output survives the pipe;
// the goos/goarch/pkg/cpu headers are additionally captured into the
// document's "env" object. Each benchmark line becomes one entry, and
// key=value path segments of sub-benchmark names (plus the trailing
// -GOMAXPROCS suffix) are parsed into "params" so consumers can slice
// the trajectory per scheduler per task count without re-parsing
// names:
//
//	{"name": "BenchmarkScale/MinMin/tasks=1000-8", "iterations": 1,
//	 "params": {"gomaxprocs": "8", "tasks": "1000"},
//	 "metrics": {"ns/op": 1.2e8, "B/op": 3.4e6, "allocs/op": 5678, "makespan_s": 2.95}}
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// entry is one parsed benchmark result line.
type entry struct {
	Name       string             `json:"name"`
	Params     map[string]string  `json:"params,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	out := flag.String("o", "", "write the JSON document to this file (default stdout only)")
	flag.Parse()

	entries, env, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	body := map[string]any{"benchmarks": entries}
	if len(env) > 0 {
		body["env"] = env
	}
	doc, err := json.MarshalIndent(body, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc = append(doc, '\n')
	if *out == "" {
		os.Stdout.Write(doc)
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// envKeys are the `go test -bench` header lines worth archiving with
// the numbers they contextualize.
var envKeys = map[string]bool{"goos": true, "goarch": true, "pkg": true, "cpu": true}

// parse reads benchmark output from r, echoing every line to echo and
// collecting the parsed results plus the environment headers. A
// benchmark line has the shape
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   10 allocs/op   1.5 makespan_s
//
// i.e. a name starting with "Benchmark", an iteration count, then
// value-unit pairs. Lines that do not parse are passed through only.
func parse(r interface{ Read([]byte) (int, error) }, echo interface {
	Write([]byte) (int, error)
}) ([]entry, map[string]string, error) {
	entries := []entry{}
	env := map[string]string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if key, val, ok := strings.Cut(line, ": "); ok && envKeys[key] {
			env[key] = val
			continue
		}
		if e, ok := parseLine(line); ok {
			entries = append(entries, e)
		}
	}
	return entries, env, sc.Err()
}

// parseLine parses one benchmark result line; ok=false for any other
// line.
func parseLine(line string) (entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: fields[0], Params: nameParams(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	if len(e.Metrics) == 0 {
		return entry{}, false
	}
	return e, true
}

// nameParams extracts key=value path segments from a sub-benchmark
// name, plus the trailing -N GOMAXPROCS suffix as "gomaxprocs". Nil
// when the name carries neither.
func nameParams(name string) map[string]string {
	var params map[string]string
	set := func(k, v string) {
		if params == nil {
			params = map[string]string{}
		}
		params[k] = v
	}
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			set("gomaxprocs", name[i+1:])
			name = name[:i]
		}
	}
	for _, seg := range strings.Split(name, "/")[1:] {
		if k, v, ok := strings.Cut(seg, "="); ok && k != "" {
			set(k, v)
		}
	}
	return params
}
