// Fixture for the errdiscard analyzer: errors from media operations must be
// handled, not dropped.
package fixture

type device struct{}

func (device) EraseBlock(b int) error                       { return nil }
func (device) ProgramPage(b, p int, data, oob []byte) error { return nil }
func (device) ReadPage(p int, buf, oob []byte) (int, error) { return 0, nil }

type leveler struct{}

func (leveler) Level() error { return nil }

func bad(d device) {
	d.EraseBlock(0)                   // want "error from EraseBlock is unchecked"
	_ = d.EraseBlock(1)               // want "error from EraseBlock discarded to _"
	_ = d.ProgramPage(0, 0, nil, nil) // want "error from ProgramPage discarded to _"
	n, _ := d.ReadPage(0, nil, nil)   // want "error from ReadPage discarded to _"
	_ = n
	_ = leveler{}.Level() // want "error from Level discarded to _"
}

func good(d device) error {
	if err := d.EraseBlock(0); err != nil {
		return err
	}
	_, err := d.ReadPage(0, nil, nil)
	return err
}

func suppressed(d device) {
	//lint:ignore swlint/errdiscard fixture demonstrates suppression
	_ = d.EraseBlock(2)
}
