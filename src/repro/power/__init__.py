"""Power modelling: the Table 1 technology library and activity-based
run-time power estimation (Section 5.1).

The paper derives component power from industrial models for 0.13 um
bulk CMOS and ignores leakage ("in this technology the impact of
leakage is very limited, particularly for low-power system design");
run-time power is switching-activity-scaled from the sniffer statistics.
"""
