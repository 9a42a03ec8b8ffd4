package circuit

// AngleSlot exposes the slot of an angle's bits in WriteQASM's angle table,
// so that tests can build angles that collide in it.
var AngleSlot = memoSlot
