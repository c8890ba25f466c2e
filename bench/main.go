// Command bench is the repository's one benchmark: four named
// workloads over in-process CQAds topologies on real loopback
// listeners, each verified for correct answers, driven closed-loop, and
// reported as named end-to-end metrics (or, with -trace 1, per-layer
// metrics from a traced replay). See README.md in this directory.
//
//	bench -workload ask_small -seed 42 -seconds 15 -trace 0
//	bench -compare out/a.jsonl out/b.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload     = flag.String("workload", "all", "workload to run: ask_small, ask_large, front_ask, mixed, or all")
		seed         = flag.Int64("seed", 42, "the only workload input: seeds corpus, questions, shuffle and write mix")
		seconds      = flag.Int("seconds", 15, "measured seconds per workload, split into five windows")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end windows")
		clients      = flag.Int("clients", min(2, runtime.NumCPU()), "closed-loop clients; at most the number of CPUs")
		out          = flag.String("out", "", "append each run's result as one JSON line to this file")
		compare      = flag.Bool("compare", false, "compare two result files: bench -compare A.jsonl B.jsonl")
		updateGolden = flag.Bool("update-golden", false, "at seed 42, rewrite the committed answer digest instead of checking it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.jsonl B.jsonl")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fatal("-clients %d: want 1..%d (the clients share the CPUs with the servers)", *clients, runtime.NumCPU())
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	specs := workloads
	if *workload != "all" {
		spec, ok := workloadByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		specs = []workloadSpec{spec}
	}
	dir, err := benchDir()
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("cqads bench: nproc=%d %s %s/%s cpu=%q\n", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	fmt.Println("latencies are this sandbox's: loopback TCP, fsync served by the page cache, CPUs shared between clients and servers")
	ok := true
	var last *result
	for _, spec := range specs {
		res, err := run(config{
			spec: spec, seed: *seed, clients: *clients, trace: *trace == 1,
			measure: time.Duration(*seconds) * time.Second, warmup: warmupLength,
			dir: dir, updateGolden: *updateGolden, report: os.Stdout,
		})
		if err != nil {
			fatal("%s: %v", spec.Name, err)
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fatal("%v", err)
			}
		}
		ok = ok && res.Correct
		last = res
	}
	// The driver reads the last line of standard output.
	fmt.Printf("%s\n", last.driverLine())
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// benchDir finds the benchmark's own directory (the one holding
// golden/) from either place the command is started: the repository
// root (run.sh, the driver) or this directory (go run .).
func benchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(dir + "/" + goldenFile); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("cannot find %s: start bench from the repository root or from bench/", goldenFile)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
