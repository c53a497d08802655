package core

import (
	"strings"
	"testing"
)

// TestConfigValidate pins the constructor-and-scenario-shared validation:
// each case mutates one knob off the valid default and names the substring
// the error must carry, so a misconfigured sweep fails with a message that
// identifies the knob.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" = valid
	}{
		{"default", func(c *Config) {}, ""},
		{"zero table", func(c *Config) { c.TableSize = 0 }, "TableSize"},
		{"negative table", func(c *Config) { c.TableSize = -3 }, "TableSize"},
		{"table past address space", func(c *Config) { c.TableSize = MaxTableSize + 1 }, "TableSize"},
		{"table of two billion", func(c *Config) { c.TableSize = 2000000000 }, "TableSize"},
		{"table at address space", func(c *Config) { c.TableSize = MaxTableSize }, ""},
		{"zero unicast window", func(c *Config) { c.UnicastWindow = 0 }, "UnicastWindow"},
		{"zero beacon window", func(c *Config) { c.BeaconWindow = 0 }, "BeaconWindow"},
		{"negative ma window", func(c *Config) { c.MAWindow = -1 }, "MAWindow"},
		{"zero ma window is default", func(c *Config) { c.MAWindow = 0 }, ""},
		{"zero prr alpha", func(c *Config) { c.PRRAlpha = 0 }, "PRRAlpha"},
		{"prr alpha above one", func(c *Config) { c.PRRAlpha = 1.01 }, "PRRAlpha"},
		{"prr alpha NaN", func(c *Config) { c.PRRAlpha = nan() }, "PRRAlpha"},
		{"prr alpha exactly one", func(c *Config) { c.PRRAlpha = 1 }, ""},
		{"zero etx alpha", func(c *Config) { c.ETXAlpha = 0 }, "ETXAlpha"},
		{"negative etx alpha", func(c *Config) { c.ETXAlpha = -0.5 }, "ETXAlpha"},
		{"max etx at one", func(c *Config) { c.MaxETX = 1 }, "MaxETX"},
		{"evict at one", func(c *Config) { c.EvictETX = 1 }, "EvictETX"},
		{"evict above max", func(c *Config) { c.EvictETX = 51 }, "EvictETX"},
		{"evict equals max", func(c *Config) { c.EvictETX = 50 }, ""},
		{"negative footer", func(c *Config) { c.FooterEntries = -1 }, "FooterEntries"},
		{"zero footer", func(c *Config) { c.FooterEntries = 0 }, ""},
		{"zero seq gap", func(c *Config) { c.MaxSeqGap = 0 }, "MaxSeqGap"},
		{"negative lottery", func(c *Config) { c.LotteryProb = -0.1 }, "LotteryProb"},
		{"lottery above one", func(c *Config) { c.LotteryProb = 1.5 }, "LotteryProb"},
		{"lottery zero and one", func(c *Config) { c.LotteryProb = 1 }, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			err := cfg.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted the config, want error mentioning %q", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// Every kind's constructor must reject an invalid config the same way.
func TestAllKindsRejectInvalidConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.EvictETX = bad.MaxETX + 1
	for _, k := range EstimatorKinds() {
		if _, err := NewKind(k, 1, bad, nil, nil); err == nil {
			t.Errorf("NewKind(%s) accepted EvictETX > MaxETX", k)
		}
	}
}

func TestParseEstimatorKind(t *testing.T) {
	for _, k := range EstimatorKinds() {
		got, err := ParseEstimatorKind(string(k))
		if err != nil || got != k {
			t.Errorf("ParseEstimatorKind(%q) = (%v, %v)", k, got, err)
		}
	}
	if got, err := ParseEstimatorKind(""); err != nil || got != KindFourBit {
		t.Errorf("ParseEstimatorKind(\"\") = (%v, %v), want the four-bit default", got, err)
	}
	if _, err := ParseEstimatorKind("etx9000"); err == nil {
		t.Error("unknown kind accepted")
	}
}
