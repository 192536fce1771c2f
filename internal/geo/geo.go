// Package geo provides geographic primitives for the simulator: lat/lon
// points, great-circle distance, a world metro catalog with population
// weights, and a geolocation database with a configurable error model.
//
// Distances drive almost every result in the paper (client→front-end
// distance, distance past closest, switch distance), so the catalog covers
// enough of the world that a "dozens of front-ends" deployment has the same
// density contrast between North America / Europe and the rest of the world
// that the Bing deployment had.
package geo

import (
	"fmt"
	"math"

	"anycastcdn/internal/units"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm units.Kilometers = 6371.0

// Point is a position on Earth in degrees.
type Point struct {
	Lat float64 // latitude in [-90, 90]
	Lon float64 // longitude in [-180, 180]
}

// Valid reports whether the point's coordinates are in range.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

func (p Point) String() string {
	return fmt.Sprintf("(%.3f,%.3f)", p.Lat, p.Lon)
}

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometers.
func DistanceKm(a, b Point) units.Kilometers {
	return kmFromHaversine(haversine(a, b, math.Cos(a.Lat*degToRad), math.Cos(b.Lat*degToRad)))
}

const degToRad = math.Pi / 180

// haversine returns the haversine term h of the great-circle distance
// from a to b, given cos(lat) of each point, clamped to 1. Distance is
// strictly increasing in h, so h orders points without the sqrt and
// asin; DistanceKm and Targets share this one expression so their
// distances agree to the bit.
func haversine(a, b Point, cosA, cosB float64) float64 {
	sinLat := math.Sin((b.Lat - a.Lat) * degToRad / 2)
	sinLon := math.Sin((b.Lon - a.Lon) * degToRad / 2)
	h := sinLat*sinLat + cosA*cosB*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return h
}

// kmFromHaversine converts a haversine term to kilometers.
func kmFromHaversine(h float64) units.Kilometers {
	return units.Kilometers(2 * EarthRadiusKm.Float() * math.Asin(math.Sqrt(h)))
}

// Region is a coarse world region used to slice results (Figure 3 reports
// Europe / World / United States separately).
type Region string

// Regions used throughout the simulator.
const (
	RegionNorthAmerica Region = "north-america"
	RegionEurope       Region = "europe"
	RegionAsia         Region = "asia"
	RegionSouthAmerica Region = "south-america"
	RegionOceania      Region = "oceania"
	RegionAfrica       Region = "africa"
)

// Metro is a metropolitan area: a name, a position, a region, and a relative
// Internet population weight used when placing clients.
type Metro struct {
	Name    string
	Point   Point
	Region  Region
	Country string
	// Weight is a relative share of client population, roughly proportional
	// to Internet user population of the metro area.
	Weight float64
}

// Offset returns a point displaced from the metro center by approximately
// dKm kilometers at the given bearing in degrees. Used to scatter client
// prefixes around their metro.
func (m Metro) Offset(dKm units.Kilometers, bearingDeg float64) Point {
	br := bearingDeg * degToRad
	lat1 := m.Point.Lat * degToRad
	lon1 := m.Point.Lon * degToRad
	ad := dKm.Float() / EarthRadiusKm.Float()
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(br))
	lon2 := lon1 + math.Atan2(math.Sin(br)*math.Sin(ad)*math.Cos(lat1),
		math.Cos(ad)-math.Sin(lat1)*math.Sin(lat2))
	// Normalize longitude into [-180, 180].
	lonDeg := math.Mod(lon2/degToRad+540, 360) - 180
	return Point{Lat: lat2 / degToRad, Lon: lonDeg}
}
