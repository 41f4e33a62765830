// Command profreport reads what the profiling harness and the black
// box write: it summarizes a profile directory, compares the capture
// environments of two recorded runs, and turns a postmortem bundle into
// a human-readable report. CPU samples carry a pprof "phase" label, so
// per-phase CPU tables and function diffs come from `go tool pprof`
// (-tags, -tagfocus, -diff_base); the -dir and -against reports print
// those commands.
//
//	profreport -dir DIR                  summary of a profile dir
//	profreport -dir NEW -against OLD     environment drift between two dirs
//	profreport -bundle DIR [-n 15]       render a postmortem bundle
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		dir     = flag.String("dir", "", "profile directory to report on")
		against = flag.String("against", "", "baseline profile directory to compare -dir against")
		bundle  = flag.String("bundle", "", "postmortem bundle directory to render")
		topN    = flag.Int("n", 15, "ring events shown by -bundle")
	)
	flag.Parse()

	if (*dir == "") == (*bundle == "") || (*against != "" && *dir == "") {
		fmt.Fprintln(os.Stderr, "profreport: exactly one of -dir, -bundle is required (-against needs -dir)")
		flag.Usage()
		return 2
	}

	var err error
	switch {
	case *dir != "" && *against != "":
		err = diffDirs(os.Stdout, *against, *dir)
	case *dir != "":
		err = reportDir(os.Stdout, *dir)
	default:
		err = reportBundle(os.Stdout, *bundle, *topN)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "profreport:", err)
		return 1
	}
	return 0
}
