package experiments

import (
	"time"

	"nymix/internal/installedos"
	"nymix/internal/sim"
)

// Table1Row is one installed-OS-as-nym measurement.
type Table1Row struct {
	Version string
	RepairS float64
	BootS   float64
	SizeMB  float64
}

// Table1 reproduces the installed-OS experiment (section 5.5): repair
// time, boot time, and COW size for Windows Vista, 7, and 8, averaged
// over three runs each.
func Table1(seed uint64) ([]Table1Row, error) {
	const runs = 3
	versions := []installedos.Version{
		installedos.WindowsVista,
		installedos.Windows7,
		installedos.Windows8,
	}
	var rows []Table1Row
	for vi, v := range versions {
		var repairSum, bootSum time.Duration
		var sizeSum float64
		for r := 0; r < runs; r++ {
			eng := sim.NewEngine(seed + uint64(400+vi*10+r))
			img, err := installedos.NewImage(v, nil)
			if err != nil {
				return nil, err
			}
			var repair, boot time.Duration
			if err := RunProc(eng, "table1", func(p *sim.Proc) error {
				var err error
				if repair, err = img.Repair(p); err != nil {
					return err
				}
				boot, err = img.Boot(p)
				return err
			}); err != nil {
				return nil, err
			}
			repairSum += repair
			bootSum += boot
			sizeSum += float64(img.COWBytes()) / (1 << 20)
		}
		rows = append(rows, Table1Row{
			Version: v.Name,
			RepairS: (repairSum / runs).Seconds(),
			BootS:   (bootSum / runs).Seconds(),
			SizeMB:  sizeSum / runs,
		})
	}
	return rows, nil
}

// RenderTable1 prints the table in the paper's layout.
func RenderTable1(rows []Table1Row) string {
	var t table
	t.row("# Table 1: installed Windows as a nym")
	t.row("version", "repair_s", "boot_s", "size_MB")
	for _, r := range rows {
		t.row(r.Version, f1(r.RepairS), f1(r.BootS), f1(r.SizeMB))
	}
	return t.String()
}
