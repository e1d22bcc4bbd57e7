// Package viz renders the simulator's recorded disk-state intervals as an
// ASCII timeline — one row per disk, one column per time bucket — which
// makes the effect of the restructuring visible at a glance: the Base
// schedule shows every disk flickering between busy and idle, while the
// transformed schedule shows long solid idle/standby stretches broken by
// one compact busy cluster per disk.
//
//	disk 0 ######____________________________________________________
//	disk 1 ......^######_____________________________________________
//	disk 2 ......________^######_____________________________________
//
// Legend: '#' busy, '.' idle at full speed, '-' idle at reduced speed
// (DRPM), '_' standby (spun down), '^' transition (spin-up/down or speed
// shift), ' ' no activity recorded.
package viz

import (
	"fmt"
	"io"
	"strings"

	"diskreuse/internal/obs"
)

// glyph maps an interval to its timeline character.
func glyph(iv obs.Interval, fullRPM int) byte {
	switch iv.State {
	case obs.DiskBusy:
		return '#'
	case obs.DiskIdle:
		if iv.RPM > 0 && iv.RPM < fullRPM {
			return '-'
		}
		return '.'
	case obs.DiskStandby:
		return '_'
	case obs.DiskTransition:
		return '^'
	}
	return '?'
}

// precedence orders glyphs when several states share one bucket: the most
// "interesting" state wins so short events stay visible.
var precedence = map[byte]int{' ': 0, '.': 1, '-': 2, '_': 3, '^': 4, '#': 5}

// Render writes the timeline of ivs, in any order, using width character
// columns over [0, end] where end is the latest interval end. fullRPM
// distinguishes full-speed from reduced-speed idling (pass the disk
// model's RPMMax; zero treats all idling as full speed).
func Render(w io.Writer, ivs []obs.Interval, width, fullRPM int) error {
	if width <= 0 {
		width = 72
	}
	if len(ivs) == 0 {
		_, err := fmt.Fprintln(w, "(no activity recorded)")
		return err
	}
	numDisks := 0
	end := 0.0
	for _, iv := range ivs {
		if iv.Disk+1 > numDisks {
			numDisks = iv.Disk + 1
		}
		if iv.To > end {
			end = iv.To
		}
	}
	if end <= 0 {
		end = 1
	}
	rows := make([][]byte, numDisks)
	for d := range rows {
		rows[d] = []byte(strings.Repeat(" ", width))
	}
	scale := float64(width) / end
	for _, iv := range ivs {
		g := glyph(iv, fullRPM)
		lo := int(iv.From * scale)
		hi := int(iv.To * scale)
		if hi >= width {
			hi = width - 1
		}
		for c := lo; c <= hi; c++ {
			if precedence[g] > precedence[rows[iv.Disk][c]] {
				rows[iv.Disk][c] = g
			}
		}
	}
	if _, err := fmt.Fprintf(w, "timeline over %.1f s ('#' busy, '.' idle, '-' low-RPM, '_' standby, '^' transition)\n", end); err != nil {
		return err
	}
	for d, row := range rows {
		if _, err := fmt.Fprintf(w, "disk %d %s\n", d, row); err != nil {
			return err
		}
	}
	return nil
}
