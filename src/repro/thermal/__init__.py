"""SW thermal modelling library (Section 5).

An equivalent-electrical RC model of a silicon die plus copper heat
spreader: the chip is divided into cubic cells of several sizes, each
cell gets five thermal resistances (four lateral, one vertical) and one
thermal capacitance, silicon conductivity is non-linear in temperature,
heat enters as current sources on the bottom cells and leaves through a
package-to-air convection resistance above the spreader.
"""
