package jqos_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"jqos"
	"jqos/internal/transport"
)

// settableLeaves lists every independently settable value of a config
// type by field path: structs are recursed into, anything else — a map or
// a func included — counts once.
func settableLeaves(t reflect.Type, prefix string, out []string) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Struct {
			out = settableLeaves(f.Type, prefix+f.Name+".", out)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigSurface is a ratchet on the configuration surface: every
// settable leaf of jqos.Config and transport.RelayConfig is listed here,
// so a new knob is a reviewed line in this file, not an accident. A value
// earns a field when two callers outside tests need different values;
// anything else is a named constant beside the code that reads it.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  reflect.Type
		want []string
	}{
		{"jqos.Config", reflect.TypeOf(jqos.Config{}), []string{
			"CacheTTL",
			"Encoder.CrossParity",
			"Encoder.CrossQueues",
			"Encoder.CrossTimeout",
			"Encoder.InBlock",
			"Encoder.InParity",
			"Encoder.InTimeout",
			"Encoder.K",
			"Feedback.Enabled",
			"LinkCapacity",
			"Monitor.ProbeInterval",
			"Scheduler.HighWatermark",
			"Scheduler.LowWatermark",
			"Scheduler.PerFlowQueues",
			"Scheduler.QueueBytes",
			"Scheduler.Weights",
			"Telemetry.PublishInterval",
			"Telemetry.SLO.AtRiskBurn",
			"Telemetry.SLO.ClearHold",
			"Telemetry.SLO.FastWindow",
			"Telemetry.SLO.MinSamples",
			"Telemetry.SLO.Objective",
			"Telemetry.SLO.SlowWindow",
			"Telemetry.SLO.ViolatedBurn",
			"UpgradeInterval",
		}},
		{"transport.RelayConfig", reflect.TypeOf(transport.RelayConfig{}), []string{
			"CacheTTL",
			"Encoder.CrossParity",
			"Encoder.CrossQueues",
			"Encoder.CrossTimeout",
			"Encoder.InBlock",
			"Encoder.InParity",
			"Encoder.InTimeout",
			"Encoder.K",
		}},
	} {
		got := settableLeaves(c.typ, "", nil)
		sort.Strings(got)
		if reflect.DeepEqual(got, c.want) {
			continue
		}
		in := func(list []string, s string) bool {
			i := sort.SearchStrings(list, s)
			return i < len(list) && list[i] == s
		}
		for _, g := range got {
			if !in(c.want, g) {
				t.Errorf("%s: new settable leaf %s (%d leaves, golden list has %d)", c.name, g, len(got), len(c.want))
			}
		}
		for _, w := range c.want {
			if !in(got, w) {
				t.Errorf("%s: golden leaf %s is gone — delete it from the list", c.name, w)
			}
		}
	}
}

// TestFlowSpecSurface is the same ratchet for per-flow intent: FlowSpec's
// fields, one line each, so the next per-flow knob is a reviewed line here.
func TestFlowSpecSurface(t *testing.T) {
	want := []string{
		"AllowInternet",
		"Budget",
		"Burst",
		"CostCeilingPerGB",
		"Dst",
		"Group",
		"Members",
		"OnEvent",
		"Path",
		"PathSwitch",
		"Rate",
		"RepinOnHeal",
		"Service",
		"ServiceFixed",
		"Src",
		"Tenant",
		"TraceSampling",
	}
	typ := reflect.TypeOf(jqos.FlowSpec{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("jqos.FlowSpec has fields\n  %v\nthe golden list has\n  %v", got, want)
	}
}

// TestFlowSpecFieldsHaveCallers holds FlowSpec to fields someone uses: every
// field must be a key of at least one jqos.FlowSpec composite literal in
// the non-test sources outside the root package (the examples, the
// commands, the internal packages and the benchmark). A field only tests
// set keeps a code path alive that nothing runs.
func TestFlowSpecFieldsHaveCallers(t *testing.T) {
	set := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"examples", "cmd", "internal", "bench"} {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				sel, ok := lit.Type.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "FlowSpec" {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "jqos" {
					return true
				}
				for _, el := range lit.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							set[id.Name] = true
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	typ := reflect.TypeOf(jqos.FlowSpec{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i).Name; !set[f] && !awaitingAudit[f] {
			t.Errorf("FlowSpec.%s is set by no jqos.FlowSpec literal outside tests — delete it, or give it a caller", f)
		}
	}
	for f := range awaitingAudit {
		if _, ok := typ.FieldByName(f); !ok || set[f] {
			t.Errorf("FlowSpec.%s is gone or has a caller now — drop it from awaitingAudit", f)
		}
	}
}

// awaitingAudit names the FlowSpec fields with no caller whose removal is
// its own change, so the ratchet holds for every other field meanwhile.
// CostCeilingPerGB: the non-test ceilings all go on TenantContract; the
// per-flow one drives the cost-violation adaptation path only tests run.
var awaitingAudit = map[string]bool{"CostCeilingPerGB": true}
