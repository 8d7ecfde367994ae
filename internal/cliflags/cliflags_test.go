package cliflags

import (
	"flag"
	"runtime"
	"testing"
)

func newSet() *flag.FlagSet {
	return flag.NewFlagSet("test", flag.ContinueOnError)
}

func TestThetaDefault(t *testing.T) {
	fs := newSet()
	theta := Theta(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *theta != 0.4 {
		t.Fatalf("theta default = %g, want the paper's 0.4", *theta)
	}
}

func TestParallelismAliasesShareValue(t *testing.T) {
	fs := newSet()
	p := Parallelism(fs, "workers", "parallel")
	if err := fs.Parse([]string{"-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if *p != 3 {
		t.Fatalf("alias -workers did not set -parallelism: got %d", *p)
	}

	fs = newSet()
	p = Parallelism(fs, "workers")
	if err := fs.Parse([]string{"-parallelism", "2", "-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	if *p != 5 {
		t.Fatalf("last flag should win across alias and canonical name: got %d", *p)
	}

	fs = newSet()
	p = Parallelism(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *p != runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelism default = %d, want GOMAXPROCS = %d", *p, runtime.GOMAXPROCS(0))
	}
}

func TestScaleHelpMentionsPerExperimentDefault(t *testing.T) {
	fs := newSet()
	Scale(fs, 0)
	f := fs.Lookup("scale")
	if f == nil {
		t.Fatal("scale flag not registered")
	}
	if f.DefValue != "0" {
		t.Fatalf("scale default = %s", f.DefValue)
	}
}

func TestPeersRegistrar(t *testing.T) {
	fs := newSet()
	peers, self := Peers(fs)
	if err := fs.Parse([]string{"-peers", "http://a:1,http://b:2", "-self", "http://a:1"}); err != nil {
		t.Fatal(err)
	}
	if *peers != "http://a:1,http://b:2" || *self != "http://a:1" {
		t.Fatalf("parsed peers=%q self=%q", *peers, *self)
	}
	// Defaults: single-node operation.
	fs2 := newSet()
	p2, s2 := Peers(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *p2 != "" || *s2 != "" {
		t.Fatalf("defaults peers=%q self=%q, want empty", *p2, *s2)
	}
}

func TestSharedRegistrars(t *testing.T) {
	fs := newSet()
	seed := Seed(fs)
	arch := Arch(fs)
	stream, reservoir := Stream(fs)
	if err := fs.Parse([]string{"-seed", "7", "-arch", "turing", "-stream", "-reservoir", "64"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 7 || *arch != "turing" || !*stream || *reservoir != 64 {
		t.Fatalf("parsed seed=%d arch=%s stream=%v reservoir=%d", *seed, *arch, *stream, *reservoir)
	}
}

// TestMethodHelpNamesEveryMethod: the -method help lists all four methods
// in any binary that links this package, whatever else that binary links.
func TestMethodHelpNamesEveryMethod(t *testing.T) {
	fs := newSet()
	Method(fs)
	f := fs.Lookup("method")
	if f == nil {
		t.Fatal("method flag not registered")
	}
	if want := "sampling methodology: pks, rss, sieve, twophase"; f.Usage != want {
		t.Fatalf("method help = %q, want %q", f.Usage, want)
	}
	if f.DefValue != "sieve" {
		t.Fatalf("method default = %q, want sieve", f.DefValue)
	}
}
