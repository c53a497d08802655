package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// binPath is the fourbitsim binary built once by TestMain: the CLI contract
// (exit codes, usage on errors) is tested against the real executable, not
// in-process approximations.
var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fourbitsim-cli")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "fourbitsim")
	out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
	if err != nil {
		panic("building fourbitsim: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestCLIErrorContract: every way to misuse the CLI exits non-zero with a
// diagnostic AND usage guidance on stderr — never a silent failure, never a
// zero exit, never a panic trace.
func TestCLIErrorContract(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		// All wantErr substrings must appear on stderr.
		wantErr []string
		// wantOut substrings must appear on stdout (usually none for errors).
		wantOut []string
	}{
		{
			name: "no args", args: nil, wantCode: 2,
			wantErr: []string{"subcommands:", "fourbitsim"},
		},
		{
			name: "unknown subcommand", args: []string{"frobnicate"}, wantCode: 2,
			wantErr: []string{`unknown subcommand "frobnicate"`, "subcommands:"},
		},
		{
			name: "unknown flag", args: []string{"fig2", "-bogus"}, wantCode: 2,
			wantErr: []string{"flag provided but not defined: -bogus", "Usage of fig2"},
		},
		{
			name: "non-positive minutes", args: []string{"fig2", "-minutes", "0"}, wantCode: 2,
			wantErr: []string{"-minutes must be positive"},
		},
		{
			name: "malformed flag value", args: []string{"fig2", "-minutes", "soon"}, wantCode: 2,
			wantErr: []string{`invalid value "soon"`, "Usage of fig2"},
		},
		{
			name: "scenario without selection", args: []string{"scenario"}, wantCode: 2,
			wantErr: []string{"scenario needs -preset NAME, -spec FILE, or -list"},
		},
		{
			name: "scenario unknown preset", args: []string{"scenario", "-preset", "nope"}, wantCode: 2,
			wantErr: []string{`unknown preset "nope"`},
		},
		{
			name: "scenario zero shards", args: []string{"scenario", "-shards", "0"}, wantCode: 2,
			wantErr: []string{"-shards must be at least 1"},
		},
		{
			name: "scenario malformed shards", args: []string{"scenario", "-shards", "x"}, wantCode: 2,
			wantErr: []string{`invalid value "x"`, "Usage of scenario"},
		},
		{
			name: "scenario missing spec file", args: []string{"scenario", "-spec", "/nonexistent/x.json"}, wantCode: 2,
			wantErr: []string{"/nonexistent/x.json"},
		},
		{
			name: "serve bad overflow policy", args: []string{"serve", "-overflow", "yolo"}, wantCode: 2,
			wantErr: []string{"yolo"},
		},
		{
			name: "serve unparseable address", args: []string{"serve", "-addr", "not-an-address"}, wantCode: 2,
			wantErr: []string{"not-an-address"},
		},
		{
			name: "replicate estimator on MultiHopLQI", args: []string{"replicate", "-proto", "MultiHopLQI", "-estimator", "wmewma"}, wantCode: 2,
			wantErr: []string{"Estimator does not apply to MultiHopLQI"},
		},
		{
			name: "scenario list succeeds", args: []string{"scenario", "-list"}, wantCode: 0,
			wantOut: []string{"built-in scenario presets:"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(binPath, tc.args...)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			code := 0
			if ee, ok := err.(*exec.ExitError); ok {
				code = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("running %v: %v", tc.args, err)
			}
			if code != tc.wantCode {
				t.Errorf("exit code %d, want %d\nstderr: %s", code, tc.wantCode, stderr.String())
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			if strings.Contains(stderr.String(), "panic:") {
				t.Errorf("CLI panicked:\n%s", stderr.String())
			}
		})
	}
}
