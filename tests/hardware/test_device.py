"""Tests for the FPGA device catalog and per-kind inventories."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.hardware.device import DEVICES, RESOURCE_KINDS, XC7Z020, ZU7EV


class TestXC7Z020:
    def test_paper_quoted_resources(self):
        """Section VI: 53,200 LUTs and 106,400 registers."""
        assert XC7Z020.luts == 53200
        assert XC7Z020.registers == 106400

    def test_paper_quoted_bram_capacity(self):
        """Section III: 'a total on-chip memory of 5,018Kb' (~= 280 x 18Kb)."""
        assert abs(XC7Z020.bram_kbits - 5018) / 5018 < 0.01

    def test_7series_has_no_uram(self):
        assert XC7Z020.uram == 0
        assert XC7Z020.uram_bits == 0
        assert XC7Z020.family == "7series"


class TestAccommodates:
    def test_per_kind_checks(self):
        assert XC7Z020.accommodates(
            {"luts": 53200, "registers": 106400, "bram18": 280}
        )
        assert not XC7Z020.accommodates({"luts": 53201})
        assert not XC7Z020.accommodates({"uram": 1})  # no URAM columns
        assert ZU7EV.accommodates({"uram": 96})

    def test_bram_kinds_share_silicon(self):
        """RAMB36 tiles are RAMB18 pairs: the joint demand must fit."""
        assert XC7Z020.accommodates({"bram18": 280})
        assert XC7Z020.accommodates({"bram36": 140})
        # Each kind fits alone; together they exceed the 280 sites.
        assert not XC7Z020.accommodates({"bram18": 200, "bram36": 100})

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ConfigError):
            XC7Z020.accommodates({"dsp": 1})
        with pytest.raises(ConfigError):
            XC7Z020.capacity("dsp")

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            XC7Z020.accommodates({"luts": -1})

    def test_capacity_covers_every_kind(self):
        for kind in RESOURCE_KINDS:
            assert XC7Z020.capacity(kind) >= 0

    def test_utilisation(self):
        util = XC7Z020.utilisation({"luts": 26600})
        assert util["luts"] == 50.0
        # Zero-capacity kinds: 0 demand is 0 %, any demand is infinite.
        assert XC7Z020.utilisation({"uram": 0})["uram"] == 0.0
        assert XC7Z020.utilisation({"uram": 1})["uram"] == float("inf")


class TestCatalog:
    def test_catalog_contains_evaluation_device(self):
        assert DEVICES["XC7Z020"] is XC7Z020

    def test_catalog_is_ordered_by_size(self):
        names = ["XC7Z010", "XC7Z020", "XC7Z030", "XC7Z045"]
        luts = [DEVICES[n].luts for n in names]
        assert luts == sorted(luts)

    def test_ultrascale_parts_present(self):
        zu3 = DEVICES["ZU3EG"]
        assert zu3.family == "ultrascale+" and zu3.uram == 0
        assert DEVICES["ZU7EV"] is ZU7EV
        assert ZU7EV.uram == 96
        assert ZU7EV.uram_bits == 96 * 294912

    def test_portfolio_property_matches_family(self):
        assert XC7Z020.portfolio.name == "bram18-compat"
        kinds = [p.kind for p in ZU7EV.portfolio.primitives]
        assert "uram" in kinds and "lutram" in kinds
