package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fourbit/internal/serve"
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
			name: "replicate negative seeds", args: []string{"replicate", "-seeds", "-1"}, wantCode: 2,
			wantErr: []string{"-seeds must be at least 1, got -1"},
		},
		{
			name: "replicate zero seeds", args: []string{"replicate", "-seeds", "0"}, wantCode: 2,
			wantErr: []string{"-seeds must be at least 1, got 0"},
		},
		{
			name: "fig3 negative hours", args: []string{"fig3", "-hours", "-1"}, wantCode: 2,
			wantErr: []string{"-hours must be positive, got -1"},
		},
		{
			name: "fig3 until before from", args: []string{"fig3", "-hours", "0.05", "-from", "0.04", "-until", "0.02"}, wantCode: 2,
			wantErr: []string{"-until must be after -from"},
		},
		{
			name: "fig3 span shorter than the sample window", args: []string{"fig3", "-hours", "0.1", "-from", "0.05", "-until", "0.08"}, wantCode: 2,
			wantErr: []string{"degradation span (-until minus -from) is 1.8 min", "at least the 10 min sample window"},
		},
		{
			name: "fig3 prints fractional hours", args: []string{"fig3", "-hours", "0.4", "-from", "0.1", "-until", "0.3"}, wantCode: 0,
			wantOut: []string{"degraded 0.1h..0.3h"},
		},
		{
			// No sample precedes a degradation inside the first 10 min
			// window, and the 0.2 h span holds one unacked sample.
			name: "fig3 summaries without samples read n/a", args: []string{"fig3", "-hours", "0.4", "-from", "0.1", "-until", "0.3"}, wantCode: 0,
			wantOut: []string{"PRR  before n/a -> during 0.", "LQI  before n/a -> during 1", "unacked ramp: n/a before -> n/a during"},
		},
		{
			name: "serve zero queue depth", args: []string{"serve", "-queue-depth", "0"}, wantCode: 2,
			wantErr: []string{"-queue-depth must be positive, got 0"},
		},
		{
			name: "serve negative queue depth", args: []string{"serve", "-queue-depth", "-5"}, wantCode: 2,
			wantErr: []string{"-queue-depth must be positive, got -5"},
		},
		{
			name: "serve zero max instances", args: []string{"serve", "-max-instances", "0"}, wantCode: 2,
			wantErr: []string{"-max-instances must be positive, got 0"},
		},
		{
			name: "serve negative request timeout", args: []string{"serve", "-request-timeout", "-1s"}, wantCode: 2,
			wantErr: []string{"-request-timeout must be positive, got -1s"},
		},
		{
			name: "serve negative drain timeout", args: []string{"serve", "-drain-timeout", "-1s"}, wantCode: 2,
			wantErr: []string{"-drain-timeout must be positive, got -1s"},
		},
		{
			name: "serve negative idle evict", args: []string{"serve", "-idle-evict", "-1s"}, wantCode: 2,
			wantErr: []string{"-idle-evict must not be negative (0 = never), got -1s"},
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

// TestSnapshotDirRestoresStrictly round-trips an instance through the
// -snapshot-dir files and checks that a file whose "entries" key is
// misspelled is refused rather than restored as an empty table.
func TestSnapshotDirRestoresStrictly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	newServer := func() *serve.Server {
		s := serve.NewServer(serve.Options{})
		t.Cleanup(func() { s.Drain(ctx) })
		return s
	}
	post := func(s *serve.Server, path, body string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code/100 != 2 {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
		}
	}
	src := newServer()
	post(src, "/v1/instances", `{"name":"n","kind":"4bit"}`)
	post(src, "/v1/instances/n/events", `{"ev":"beacon","at":1,"src":2,"seq":1,"lqi":80,"white":true}`)
	dir := t.TempDir()
	if n, err := writeSnapshotDir(src, ctx, dir); err != nil || n != 1 {
		t.Fatalf("writeSnapshotDir = %d, %v", n, err)
	}
	if n, err := restoreSnapshotDir(newServer(), dir); err != nil || n != 1 {
		t.Fatalf("restoreSnapshotDir = %d, %v", n, err)
	}

	path := filepath.Join(dir, "n.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(data, []byte(`"entries":[{`), []byte(`"entrys":[{`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("snapshot carries no entries: %s", data)
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := restoreSnapshotDir(newServer(), dir); err == nil || !strings.Contains(err.Error(), "entrys") {
		t.Fatalf("restoring a misspelled key: err = %v, want an unknown-field error", err)
	}
}
