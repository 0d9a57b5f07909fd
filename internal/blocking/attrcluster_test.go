package blocking

import (
	"strings"
	"testing"

	"pier/internal/profile"
	"pier/internal/storage"
)

// attrSample builds two-source profiles where A's "title"/"director" line up
// with B's "name"/"directed_by", and "year" stands alone.
func attrSample() []*profile.Profile {
	mkp := func(id int, src profile.Source, nv ...string) *profile.Profile {
		return profile.New(id, src, "", nv...)
	}
	return []*profile.Profile{
		mkp(1, profile.SourceA, "title", "the matrix reloaded", "director", "lana wachowski", "year", "2003"),
		mkp(2, profile.SourceA, "title", "blade runner replicant", "director", "ridley scott", "year", "1982"),
		mkp(3, profile.SourceB, "name", "matrix reloaded the", "directed_by", "wachowski lana", "released", "2003"),
		mkp(4, profile.SourceB, "name", "blade runner replicant cut", "directed_by", "scott ridley", "released", "1982"),
	}
}

func TestAttrClustererJoinsEquivalentColumns(t *testing.T) {
	c := NewAttrClusterer(attrSample(), 0.2)
	if c.Cluster("title") != c.Cluster("name") {
		t.Error("title and name should cluster together (shared vocabularies)")
	}
	if c.Cluster("director") != c.Cluster("directed_by") {
		t.Error("director and directed_by should cluster together")
	}
	if c.Cluster("title") == c.Cluster("director") {
		t.Error("title and director vocabularies are disjoint; they must not merge")
	}
	if c.Clusters() < 3 {
		t.Errorf("Clusters = %d, want >= 3 (title/name, director/directed_by, year-ish)", c.Clusters())
	}
}

func TestAttrClustererUnknownNamesShareGlueCluster(t *testing.T) {
	c := NewAttrClusterer(attrSample(), 0.2)
	if c.Cluster("brand_new_attr") != c.Cluster("other_new_attr") {
		t.Error("unseen attribute names must share the glue cluster")
	}
	if c.Cluster("brand_new_attr") != c.Clusters() {
		t.Error("glue cluster id must be Clusters()")
	}
}

func TestAttrClusterKeyerPrefixesTokens(t *testing.T) {
	sample := attrSample()
	c := NewAttrClusterer(sample, 0.2)
	keyer := c.Keyer()
	keys := keyer(sample[0])
	if len(keys) == 0 {
		t.Fatal("no keys emitted")
	}
	for _, k := range keys {
		if !strings.Contains(k, ":") {
			t.Fatalf("key %q lacks a cluster prefix", k)
		}
	}
	// Cross-source equivalent attributes must produce colliding keys.
	keysB := keyer(sample[2])
	shared := 0
	setB := map[string]bool{}
	for _, k := range keysB {
		setB[k] = true
	}
	for _, k := range keys {
		if setB[k] {
			shared++
		}
	}
	if shared < 3 { // matrix, reloaded, the (title cluster) at least
		t.Errorf("cross-source duplicates share only %d prefixed keys: %v vs %v", shared, keys, keysB)
	}
}

func TestAttrClusterKeyerSeparatesCrossAttributeCollisions(t *testing.T) {
	// "london" as a person name vs as a city: plain token blocking collides
	// them; attribute clustering must not (disjoint vocabularies).
	sample := []*profile.Profile{
		profile.New(1, profile.SourceA, "", "person", "jack london author", "city", "paris lyon"),
		profile.New(2, profile.SourceA, "", "person", "emile zola author", "city", "london leeds"),
		profile.New(3, profile.SourceA, "", "person", "jack kerouac author", "city", "paris nice"),
	}
	c := NewAttrClusterer(sample, 0.4)
	if c.Cluster("person") == c.Cluster("city") {
		t.Skip("vocabulary overlap merged person/city in this tiny sample")
	}
	keyer := c.Keyer()
	k1 := keyer(sample[0]) // person "london"
	k2 := keyer(sample[1]) // city "london"
	set2 := map[string]bool{}
	for _, k := range k2 {
		set2[k] = true
	}
	for _, k := range k1 {
		if strings.HasSuffix(k, ":london") && set2[k] {
			t.Errorf("cross-attribute 'london' still collides under key %q", k)
		}
	}
}

func TestAttrClusterKeyerEndToEnd(t *testing.T) {
	sample := attrSample()
	c := NewAttrClusterer(sample, 0.2)
	col := NewCollectionStorage(true, 0, c.Keyer(), 0, storage.Config{})
	for _, p := range sample {
		col.Add(p)
	}
	// The duplicate pair (1,3) must share blocks.
	shared := 0
	for _, b := range col.BlocksOf(1) {
		if len(b.A) > 0 && len(b.B) > 0 {
			shared++
		}
	}
	if shared < 3 {
		t.Errorf("duplicate pair shares only %d attribute-clustered blocks", shared)
	}
}

func TestAttrClustererDefaults(t *testing.T) {
	c := NewAttrClusterer(nil, 0) // empty sample, default threshold
	if c.Clusters() != 0 {
		t.Errorf("empty sample Clusters = %d", c.Clusters())
	}
	if c.Cluster("anything") != 0 {
		t.Error("all names must fall into the glue cluster")
	}
	if keys := c.Keyer()(profile.New(1, profile.SourceA, "", "x", "some tokens")); len(keys) == 0 {
		t.Error("keyer must still emit keys with no learned clusters")
	}
}
