package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args []string) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	code := run(args, &buf)
	return code, buf.String()
}

func TestTrapdoorRun(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "trapdoor", "-n", "3", "-N", "16", "-F", "6", "-t", "2",
		"-adversary", "fixed", "-seed", "4",
	})
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	for _, frag := range []string{"all synced: true", "leaders: 1", "properties OK"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestSamaritanRun(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "samaritan", "-n", "2", "-N", "16", "-F", "8", "-t", "4",
		"-adversary", "fixed", "-tprime", "1", "-seed", "3",
	})
	if code != 0 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "all synced: true") {
		t.Fatalf("samaritan did not sync:\n%s", out)
	}
}

func TestTraceFlag(t *testing.T) {
	code, out := runCapture(t, []string{
		"-protocol", "trapdoor", "-n", "2", "-N", "8", "-F", "4", "-t", "1",
		"-trace", "4", "-seed", "5",
	})
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, "trace: last") {
		t.Fatalf("trace missing:\n%s", out)
	}
}

func TestActivationsAndEngines(t *testing.T) {
	for _, extra := range [][]string{
		{"-activation", "staggered", "-gap", "10"},
		{"-activation", "random", "-window", "50"},
		{"-ft"},
		{"-adversary", "random"},
		{"-adversary", "sweep"},
	} {
		args := append([]string{
			"-protocol", "trapdoor", "-n", "2", "-N", "8", "-F", "4", "-t", "1", "-seed", "6",
		}, extra...)
		if code, out := runCapture(t, args); code != 0 {
			t.Errorf("args %v: exit %d\n%s", extra, code, out)
		}
	}
}

func TestBadInputs(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nope"},
		{"-activation", "nope"},
		{"-adversary", "nope"},
		{"-not-a-flag"},
		{"-protocol", "trapdoor", "-F", "0"},
		{"-protocol", "samaritan", "-F", "4", "-t", "3"},
	}
	for _, args := range cases {
		if code, _ := runCapture(t, args); code == 0 {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestBaselineProtocols(t *testing.T) {
	for _, proto := range []string{"wakeup", "roundrobin", "singlefreq"} {
		code, _ := runCapture(t, []string{
			"-protocol", proto, "-n", "2", "-N", "8", "-F", "4", "-t", "0",
			"-adversary", "none", "-rounds", "30000", "-seed", "7",
		})
		if code != 0 {
			t.Errorf("%s: exit %d", proto, code)
		}
	}
}
