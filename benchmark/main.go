package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// errOut receives diagnostics; the last line of standard output is reserved
// for the result.
var errOut io.Writer = os.Stderr

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "comma-separated workloads to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "generator seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "length of the measure window of each workload, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant of each workload and reports the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON (one workload only)")
	dir := fs.String("dir", ".bench_build", "directory for kv-durable's WAL files (emptied of them after each run)")
	runs := fs.Int("runs", 1, "execute this many full runs (seeds seed, seed+1, …) and report median and quartiles per metric")
	out := fs.String("out", "", "write the result file (the input of -compare) here")
	compare := fs.Bool("compare", false, "compare two result files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(errOut, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(errOut, "benchmark: bad arguments; see -help")
		return 2
	}
	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
		for _, n := range names {
			if _, ok := kvSpecByName(n); !ok && n != simReference {
				fmt.Fprintf(errOut, "benchmark: unknown workload %q (want one of %s)\n", n, strings.Join(workloadNames(), ", "))
				return 2
			}
		}
	}
	if *traceOut != "" && (len(names) != 1 || *runs != 1 || *trace != 1) {
		fmt.Fprintln(errOut, "benchmark: -trace-out needs -trace 1, one workload and one run")
		return 2
	}

	fmt.Printf("wbcast benchmark: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d window=%ds trace=%d runs=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, *seed, *seconds, *trace, *runs)
	var all []*result
	ok := true
	for i := 0; i < *runs; i++ {
		for _, name := range names {
			o := runOpts{
				seed: *seed + int64(i), window: time.Duration(*seconds) * time.Second,
				trace: *trace == 1, traceOut: *traceOut, dataDir: *dir,
			}
			res, err := runWorkload(name, o)
			if err != nil {
				// The run could not be made at all: no result is printed.
				fmt.Fprintln(errOut, "benchmark:", err)
				return 1
			}
			printResult(os.Stdout, res, o.trace)
			ok = ok && res.Correct
			all = append(all, res)
		}
	}
	if *runs > 1 {
		printSummary(os.Stdout, all, *trace == 1)
	}
	if *out != "" {
		if err := writeResultFile(*out, all, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(errOut, "benchmark:", err)
			return 1
		}
	}
	if len(all) == 1 {
		// The PR driver's contract: one workload, one run, and the result as
		// one JSON object on the last line of standard output.
		line, err := json.Marshal(all[0].driverLine(*trace == 1))
		if err != nil {
			fmt.Fprintln(errOut, "benchmark:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// runWorkload makes one run of the named workload.
func runWorkload(name string, o runOpts) (*result, error) {
	var res *result
	var err error
	if spec, isKV := kvSpecByName(name); isKV {
		res, err = runKV(spec, o)
	} else {
		res, err = runSim(o)
	}
	if err != nil {
		return nil, err
	}
	res.fillMissing(o.trace)
	return res, nil
}
