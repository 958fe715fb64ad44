package workload

import (
	"reflect"
	"sort"
	"testing"

	"largewindow/internal/emu"
)

// omittedNames are the kernels the paper excluded from its suites.
var omittedNames = []string{"ammp", "health"}

func TestOmittedExcludedFromSuites(t *testing.T) {
	var registered []string
	for name, sp := range registry {
		if sp.Omitted {
			registered = append(registered, name)
		}
	}
	sort.Strings(registered)
	if !reflect.DeepEqual(registered, omittedNames) {
		t.Fatalf("omitted kernels in the registry = %v, want %v", registered, omittedNames)
	}
	for _, name := range omittedNames {
		sp, ok := Get(name)
		if !ok || !sp.Omitted {
			t.Errorf("%s not retrievable via Get with Omitted set", name)
		}
	}
	for _, sp := range All() {
		if sp.Omitted {
			t.Errorf("%s leaked into the evaluation suites", sp.Name)
		}
	}
	if sp, _ := Get("art"); sp.Omitted {
		t.Error("suite benchmark marked omitted")
	}
}

func TestOmittedKernelsTerminate(t *testing.T) {
	for _, name := range omittedNames {
		spec, _ := Get(name)
		m := emu.New(spec.Build(ScaleTest))
		n, err := m.Run(30_000_000)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n < 1000 {
			t.Errorf("%s ran only %d instructions", name, n)
		}
	}
}
