package dataset

import "ocularone/internal/scene"

// CategoryID names a Table-1 row, e.g. "1a" (footpath, no pedestrians).
type CategoryID string

// Category describes one Table-1 row and the scene constraints that
// realise it.
type Category struct {
	ID         CategoryID
	Group      string // "footpath", "path", "side-of-road", "mixed", "adversarial"
	Desc       string
	PaperCount int // number of annotated images in the paper's dataset

	// Scene-generation constraints.
	Background  scene.Background
	MixedBg     bool // sample the background per item (categories 4 and 5)
	Pedestrians [2]int
	Bicycles    [2]int
	ParkedCars  [2]int
	Adversarial bool
}

// Taxonomy reproduces Table 1 of the paper exactly. PaperCounts sum to
// 30,711.
var Taxonomy = []Category{
	{ID: "1a", Group: "footpath", Desc: "No pedestrians", PaperCount: 2294,
		Background: scene.Footpath},
	{ID: "1b", Group: "footpath", Desc: "Pedestrians in FoV", PaperCount: 1371,
		Background: scene.Footpath, Pedestrians: [2]int{1, 3}},
	{ID: "1c", Group: "footpath", Desc: "Usual surroundings", PaperCount: 2115,
		Background: scene.Footpath, Pedestrians: [2]int{0, 1}, Bicycles: [2]int{0, 1}},
	{ID: "2a", Group: "path", Desc: "Bicycles in FoV", PaperCount: 901,
		Background: scene.Path, Bicycles: [2]int{1, 2}},
	{ID: "2b", Group: "path", Desc: "Pedestrians in FoV", PaperCount: 1658,
		Background: scene.Path, Pedestrians: [2]int{1, 3}},
	{ID: "2c", Group: "path", Desc: "Pedestrians & Cycles in FoV", PaperCount: 1057,
		Background: scene.Path, Pedestrians: [2]int{1, 2}, Bicycles: [2]int{1, 2}},
	{ID: "3a", Group: "side-of-road", Desc: "Pedestrians in FoV", PaperCount: 1326,
		Background: scene.RoadSide, Pedestrians: [2]int{1, 3}},
	{ID: "3b", Group: "side-of-road", Desc: "Usual Surroundings", PaperCount: 1887,
		Background: scene.RoadSide, Pedestrians: [2]int{0, 1}, ParkedCars: [2]int{0, 1}},
	{ID: "3c", Group: "side-of-road", Desc: "No pedestrians in FoV", PaperCount: 2022,
		Background: scene.RoadSide},
	{ID: "3d", Group: "side-of-road", Desc: "Parked cars in FoV", PaperCount: 2527,
		Background: scene.RoadSide, ParkedCars: [2]int{1, 3}},
	{ID: "4", Group: "mixed", Desc: "Mixed scenarios", PaperCount: 9169,
		MixedBg: true, Pedestrians: [2]int{0, 3}, Bicycles: [2]int{0, 2}, ParkedCars: [2]int{0, 2}},
	{ID: "5", Group: "adversarial", Desc: "Low light, blur, cropped image, etc.", PaperCount: 4384,
		MixedBg: true, Pedestrians: [2]int{0, 2}, Bicycles: [2]int{0, 1}, ParkedCars: [2]int{0, 1},
		Adversarial: true},
}

// CategoryByID returns the taxonomy row with the given ID, or nil.
func CategoryByID(id CategoryID) *Category {
	for i := range Taxonomy {
		if Taxonomy[i].ID == id {
			return &Taxonomy[i]
		}
	}
	return nil
}
