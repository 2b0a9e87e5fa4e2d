package dataset

import (
	"math"
	"testing"

	"ocularone/internal/scene"
)

func TestTaxonomyMatchesTable1(t *testing.T) {
	total := 0
	for _, c := range Taxonomy {
		total += c.PaperCount
	}
	if total != PaperTotal {
		t.Fatalf("taxonomy total %d, want %d", total, PaperTotal)
	}
	if len(Taxonomy) != 12 {
		t.Fatalf("taxonomy rows %d, want 12", len(Taxonomy))
	}
	// Spot-check a few Table-1 counts.
	want := map[CategoryID]int{"1a": 2294, "2b": 1658, "3d": 2527, "4": 9169, "5": 4384}
	for id, n := range want {
		c := CategoryByID(id)
		if c == nil || c.PaperCount != n {
			t.Fatalf("category %s count wrong", id)
		}
	}
	if CategoryByID("nope") != nil {
		t.Fatal("unknown category resolved")
	}
}

func TestDiverseCategoriesExcludeAdversarial(t *testing.T) {
	dc := DiverseCategories()
	if len(dc) != 11 {
		t.Fatalf("diverse categories = %d, want 11", len(dc))
	}
	for _, c := range dc {
		if c.Adversarial {
			t.Fatalf("adversarial category %s in diverse set", c.ID)
		}
	}
}

func TestBuildPaperScaleCounts(t *testing.T) {
	ds := Build(Config{Scale: 1, Seed: 1})
	if ds.Len() != PaperTotal {
		t.Fatalf("paper-scale dataset has %d items, want %d", ds.Len(), PaperTotal)
	}
	counts := ds.CountByCategory()
	for _, c := range Taxonomy {
		if counts[c.ID] != c.PaperCount {
			t.Fatalf("category %s: %d items, want %d", c.ID, counts[c.ID], c.PaperCount)
		}
	}
}

func TestBuildScaledProportions(t *testing.T) {
	ds := Build(Config{Scale: 0.01, Seed: 1})
	counts := ds.CountByCategory()
	for _, c := range Taxonomy {
		want := int(math.Round(float64(c.PaperCount) * 0.01))
		if want < 1 {
			want = 1
		}
		if counts[c.ID] != want {
			t.Fatalf("scaled category %s: %d, want %d", c.ID, counts[c.ID], want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(Config{Scale: 0.005, Seed: 7})
	b := Build(Config{Scale: 0.005, Seed: 7})
	if a.Len() != b.Len() {
		t.Fatal("lengths differ")
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatalf("item %d differs", i)
		}
	}
}

func TestRenderDiverseItemHasVest(t *testing.T) {
	ds := Build(Config{Scale: 0.002, Seed: 3, W: 160, H: 120})
	for _, it := range ds.Diverse().Items[:5] {
		r := ds.Render(it)
		if !r.Truth.HasVIP || r.Truth.VestBox.Empty() {
			t.Fatalf("diverse item %s has no vest box", ItemID(it))
		}
		if r.Image.W != 160 || r.Image.H != 120 {
			t.Fatalf("render dims wrong: %dx%d", r.Image.W, r.Image.H)
		}
	}
}

func TestAdversarialItemsHaveAttacks(t *testing.T) {
	ds := Build(Config{Scale: 0.01, Seed: 3})
	adv := ds.Adversarial()
	if adv.Len() == 0 {
		t.Fatal("no adversarial items")
	}
	kinds := map[AttackKind]int{}
	for _, it := range adv.Items {
		if it.Attack.Kind == NoAttack {
			t.Fatalf("adversarial item %s has no attack", ItemID(it))
		}
		kinds[it.Attack.Kind]++
	}
	if len(kinds) < 3 {
		t.Fatalf("attack variety too low: %v", kinds)
	}
	for _, it := range ds.Diverse().Items {
		if it.Attack.Kind != NoAttack {
			t.Fatalf("diverse item %s has attack %v", ItemID(it), it.Attack.Kind)
		}
	}
}

func TestLowLightAttackDarkens(t *testing.T) {
	ds := Build(Config{Scale: 0.002, Seed: 5, W: 160, H: 120})
	it := ds.Diverse().Items[0]
	plain := ds.Render(it)
	it.Attack = Attack{Kind: LowLight, Brightness: 0.3}
	dark := ds.Render(it)
	if dark.Image.Luma() >= plain.Image.Luma()*0.6 {
		t.Fatalf("low-light attack ineffective: %v vs %v", dark.Image.Luma(), plain.Image.Luma())
	}
}

func TestCropAttackKeepsVest(t *testing.T) {
	ds := Build(Config{Scale: 0.002, Seed: 5, W: 160, H: 120})
	it := ds.Diverse().Items[0]
	it.Attack = Attack{Kind: CroppedImage, CropFrac: 0.6}
	r := ds.Render(it)
	if !r.Truth.HasVIP {
		t.Skip("vest cropped fully out for this seed; acceptable but untestable here")
	}
	if r.Truth.VestBox.Empty() {
		t.Fatal("HasVIP true but vest box empty after crop")
	}
	// Box must be inside the frame.
	if r.Truth.VestBox != r.Truth.VestBox.Clamp(160, 120) {
		t.Fatalf("vest box out of frame: %+v", r.Truth.VestBox)
	}
}

func TestTiltAttackMapsBoxes(t *testing.T) {
	ds := Build(Config{Scale: 0.002, Seed: 5, W: 160, H: 120})
	it := ds.Diverse().Items[1]
	plain := ds.Render(it)
	it.Attack = Attack{Kind: Tilted, AngleRad: 0.3}
	tilted := ds.Render(it)
	if tilted.Truth.VestBox.Empty() {
		t.Fatal("tilt lost the vest box")
	}
	if plain.Truth.VestBox == tilted.Truth.VestBox {
		t.Fatal("tilt did not move the vest box")
	}
}

func TestStratifiedSplitProtocol(t *testing.T) {
	ds := Build(Config{Scale: 0.1, Seed: 11})
	sp := ds.StratifiedSplit(0.126) // paper: 3,866 of 30,711 ≈ 12.6%
	total := sp.Train.Len() + sp.Val.Len() + sp.Test.Len()
	if total != ds.Len() {
		t.Fatalf("split loses items: %d != %d", total, ds.Len())
	}
	pool := sp.Train.Len() + sp.Val.Len()
	frac := float64(pool) / float64(ds.Len())
	if math.Abs(frac-0.126) > 0.02 {
		t.Fatalf("training pool fraction %v, want ≈0.126", frac)
	}
	// 80:20 train:val.
	ratio := float64(sp.Val.Len()) / float64(pool)
	if math.Abs(ratio-0.2) > 0.05 {
		t.Fatalf("val ratio %v, want ≈0.2", ratio)
	}
	// No leakage: train∩test = ∅.
	seen := map[string]bool{}
	for _, it := range sp.Train.Items {
		seen[ItemID(it)] = true
	}
	for _, it := range sp.Val.Items {
		if seen[ItemID(it)] {
			t.Fatal("item in both train and val")
		}
		seen[ItemID(it)] = true
	}
	for _, it := range sp.Test.Items {
		if seen[ItemID(it)] {
			t.Fatal("item in both train and test")
		}
	}
	// Every category contributes training data (stratification).
	catSeen := map[CategoryID]bool{}
	for _, it := range sp.Train.Items {
		catSeen[it.Category] = true
	}
	if len(catSeen) != len(Taxonomy) {
		t.Fatalf("stratification missing categories: %d/%d", len(catSeen), len(Taxonomy))
	}
}

func TestRandomSampleNoReplacement(t *testing.T) {
	ds := Build(Config{Scale: 0.05, Seed: 13})
	s := ds.RandomSample(100, 21)
	if s.Len() != 100 {
		t.Fatalf("sample size %d", s.Len())
	}
	seen := map[string]bool{}
	for _, it := range s.Items {
		id := ItemID(it)
		if seen[id] {
			t.Fatalf("duplicate %s in sample", id)
		}
		seen[id] = true
	}
}

func TestSubset(t *testing.T) {
	ds := Build(Config{Scale: 0.01, Seed: 17})
	s := ds.Subset(10)
	if s.Len() != 10 {
		t.Fatalf("subset len %d", s.Len())
	}
	if ds.Subset(10_000_000).Len() != ds.Len() {
		t.Fatal("oversized subset not clamped")
	}
}

func TestAttackStrings(t *testing.T) {
	names := map[AttackKind]string{
		NoAttack: "none", LowLight: "low-light", Blur: "blur",
		CroppedImage: "cropped", Tilted: "tilted", LowLightBlur: "low-light+blur",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%v.String() = %q", int(k), k.String())
		}
	}
}

func TestSampleSceneRespectsCategory(t *testing.T) {
	ds := Build(Config{Scale: 0.01, Seed: 19, W: 160, H: 120})
	// Category 3d guarantees parked cars → distractor boxes present.
	found := false
	for _, it := range ds.Items {
		if it.Category != "3d" {
			continue
		}
		r := ds.Render(it)
		if len(r.Truth.DistractorBoxes) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no 3d item rendered distractors (parked cars)")
	}
}

func TestRenderedSceneBackgrounds(t *testing.T) {
	// Category 1a is always footpath; check via the sampled scene.
	cat := CategoryByID("1a")
	if cat.Background != scene.Footpath {
		t.Fatal("1a background not footpath")
	}
}

// PaperTotal is the paper's full dataset size (Table 1 total row).
const PaperTotal = 30711

// DiverseCategories returns all non-adversarial categories.
func DiverseCategories() []Category {
	out := make([]Category, 0, len(Taxonomy)-1)
	for _, c := range Taxonomy {
		if !c.Adversarial {
			out = append(out, c)
		}
	}
	return out
}
