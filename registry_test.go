package pier_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pier"
	"pier/internal/dataset"
)

// registryProfiles returns census profiles under unique keys, and the
// profiles by key, so a reported profile can be checked against the value
// that was pushed.
func registryProfiles() ([]pier.Profile, map[string]pier.Profile) {
	d := dataset.Census(0.001, 1)
	out := make([]pier.Profile, len(d.Profiles))
	byKey := make(map[string]pier.Profile, len(out))
	for i, p := range d.Profiles {
		pr := pier.Profile{Key: fmt.Sprintf("p%d", i)}
		for _, a := range p.Attributes {
			pr.Attributes = append(pr.Attributes, pier.Attribute{Name: a.Name, Value: a.Value})
		}
		out[i] = pr
		byKey[pr.Key] = pr
	}
	return out, byKey
}

// pushAll pushes profiles in increments of 50.
func pushAll(t *testing.T, p *pier.Pipeline, profiles []pier.Profile) {
	t.Helper()
	for i := 0; i < len(profiles); i += 50 {
		if err := p.Push(profiles[i:min(i+50, len(profiles))]); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAnswers queries every seventh profile and requires every candidate's
// Profile to equal the pushed value. With shared set, the candidate must also
// share the pushed attribute slice: the answer is read from the registry, not
// rebuilt. It returns the number of candidates checked.
func checkAnswers(t *testing.T, p *pier.Pipeline, profiles []pier.Profile, byKey map[string]pier.Profile, shared bool) int {
	t.Helper()
	n := 0
	for i := 0; i < len(profiles); i += 7 {
		res, err := p.Query(profiles[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Candidates {
			want, ok := byKey[c.Profile.Key]
			if !ok || !reflect.DeepEqual(c.Profile, want) {
				t.Fatalf("candidate %+v is not the pushed profile %+v", c.Profile, want)
			}
			if shared && len(want.Attributes) > 0 && &c.Profile.Attributes[0] != &want.Attributes[0] {
				t.Fatalf("candidate %s carries a copy of the pushed attributes", c.Profile.Key)
			}
			n++
		}
	}
	return n
}

// TestQueryAnswersAreRegisteredProfiles checks that query answers are the
// profiles passed to Push: without a window, under a window that evicts
// most of the stream, and on a pipeline restored from a checkpoint and fed
// the rest of the stream.
func TestQueryAnswersAreRegisteredProfiles(t *testing.T) {
	profiles, byKey := registryProfiles()
	for _, window := range []int{0, 120} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			p, err := pier.NewPipeline(pier.Options{Window: window})
			if err != nil {
				t.Fatal(err)
			}
			pushAll(t, p, profiles)
			p.Stop()
			if n := checkAnswers(t, p, profiles, byKey, true); n == 0 {
				t.Fatal("no query found a candidate; the test is vacuous")
			}
		})
	}
	t.Run("restored", func(t *testing.T) {
		half := len(profiles) / 2
		opt := pier.Options{Algorithm: pier.IPCS}
		p, err := pier.NewPipeline(opt)
		if err != nil {
			t.Fatal(err)
		}
		pushAll(t, p, profiles[:half])
		var snap bytes.Buffer
		if _, err := p.Checkpoint(&snap); err != nil {
			t.Fatal(err)
		}
		p.Stop()
		r, err := pier.Restore(&snap, opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := checkAnswers(t, r, profiles[:half], byKey, false); n == 0 {
			t.Fatal("no query on the restored index found a candidate")
		}
		pushAll(t, r, profiles[half:])
		r.Stop()
		if n := checkAnswers(t, r, profiles, byKey, false); n == 0 {
			t.Fatal("no query found a candidate after the restored pipeline resumed")
		}
	})
}

// TestCustomMatcherAndKeyerSeePushedProfiles runs a custom Matcher and Keyer
// and requires every profile they are handed to equal the value pushed (or
// probed) under its key, before and after a Checkpoint and Restore.
func TestCustomMatcherAndKeyerSeePushedProfiles(t *testing.T) {
	profiles, byKey := registryProfiles()
	probe := pier.Profile{Key: "probe", Attributes: profiles[0].Attributes}
	byKey[probe.Key] = probe
	var mu sync.Mutex
	var matched, keyed int
	var bad []string
	see := func(who string, pr pier.Profile) {
		if want, ok := byKey[pr.Key]; !ok || !reflect.DeepEqual(pr, want) {
			bad = append(bad, fmt.Sprintf("%s got %+v, pushed %+v", who, pr, want))
		}
	}
	opt := pier.Options{
		Algorithm: pier.IPCS,
		Matcher: func(_ context.Context, x, y pier.Profile) (bool, error) {
			mu.Lock()
			defer mu.Unlock()
			matched++
			see("matcher", x)
			see("matcher", y)
			return x.Attributes[0].Value == y.Attributes[0].Value, nil
		},
		Keyer: func(pr pier.Profile) []string {
			mu.Lock()
			defer mu.Unlock()
			keyed++
			see("keyer", pr)
			var keys []string
			for _, a := range pr.Attributes {
				keys = append(keys, strings.Fields(strings.ToLower(a.Value))...)
			}
			return keys
		},
	}
	check := func(phase string) {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(bad) > 0 {
			t.Fatalf("%s: %d profiles differ from the pushed values, first: %s", phase, len(bad), bad[0])
		}
		if matched == 0 || keyed == 0 {
			t.Fatalf("%s: matcher called %d times, keyer %d times; the test is vacuous", phase, matched, keyed)
		}
		matched, keyed = 0, 0
	}
	half := len(profiles) / 2
	p, err := pier.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, p, profiles[:half])
	if _, err := p.Query(probe); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := p.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	check("before restore")
	r, err := pier.Restore(&snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	pushAll(t, r, profiles[half:])
	if _, err := r.Query(probe); err != nil {
		t.Fatal(err)
	}
	r.Stop()
	check("after restore")
}
