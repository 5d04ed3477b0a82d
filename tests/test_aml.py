import pytest

from bipan import exchange, io
from bipan.errors import BiPanError
from bipan.model import ProductKind


def caex(body: str, root: str = "CAEXFile") -> bytes:
    return (
        f'<?xml version="1.0" encoding="utf-8"?>\n'
        f'<{root} FileName="t.aml" SchemaVersion="3.0" xmlns="http://www.dke.de/CAEX">'
        f"<SystemUnitClassLib Name=\"Lib\"><SystemUnitClass Name=\"SUC\" ID=\"suc\">"
        f"{body}"
        f"</SystemUnitClass></SystemUnitClassLib></{root}>"
    ).encode("utf-8")


class TestImport:
    def test_battery_fixture(self, fixtures_dir):
        fragment = exchange.import_aml((fixtures_dir / "battery.aml").read_bytes())
        assert len(fragment.products) == 10
        by_id = {p.id: p for p in fragment.products}
        assert by_id["mod1"].position == (1.0, 0.5, 0.1)
        assert by_id["mod1"].kind is ProductKind.SUB_PRODUCT
        assert by_id["bms"].attributes == {"Manufacturer": "Cellwork GmbH"}
        assert by_id["cables"].kind is ProductKind.ELEMENTARY
        assert "cables" not in fragment.explicit_kinds
        assert "bms" in fragment.explicit_kinds

    def test_the_emitted_fragment_loads_as_a_model(self, fixtures_dir):
        """``import-aml`` writes a model document whose every key the model decoder allows,
        and which loads back to the same bytes."""
        data = exchange.import_aml((fixtures_dir / "battery.aml").read_bytes()).to_bytes()
        assert io.save_model(io.load_model(data)) == data

    def test_empty_system_unit_class(self):
        fragment = exchange.import_aml(caex(""))
        assert fragment.products == ()

    def test_caex3_namespace_accepted(self):
        data = caex('<InternalElement ID="a" Name="A"/>').replace(
            b"http://www.dke.de/CAEX", b"http://www.dke.de/CAEX3.0"
        )
        assert [p.id for p in exchange.import_aml(data).products] == ["a"]

    def test_missing_id_names_element_path(self):
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex('<InternalElement Name="Nameless"/>'))
        assert err.value.code == "parse-error"
        assert "Nameless" in err.value.detail
        assert "SystemUnitClass" in err.value.detail

    def test_a_root_that_is_no_caex_file_is_a_parse_error(self):
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex("", root="NotCaex"))
        assert err.value.code == "parse-error"

    def test_malformed_xml_carries_position(self):
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(b"<CAEXFile><oops></CAEXFile>")
        assert err.value.code == "parse-error"
        assert err.value.detail == "line 1, column 18: mismatched tag"

    @pytest.mark.parametrize("data, detail", [
        (b"<a><b></a>", "line 1, column 8: mismatched tag"),
        (b"", "line 1, column 0: no element found"),
        (b'<!DOCTYPE a SYSTEM "x.dtd"><a>&foo;</a>', "line 1, column 30: undefined entity &foo;"),
    ], ids=["mismatched", "empty", "undefined-entity"])
    def test_malformed_xml_names_its_position_once(self, data, detail):
        """The position comes once, first, as in a JSON ``parse-error``; the reason keeps
        what the parser says, such as the name of an undefined entity."""
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(data)
        assert (err.value.code, err.value.detail) == ("parse-error", detail)

    def test_duplicate_ids(self):
        body = '<InternalElement ID="a" Name="A"/><InternalElement ID="a" Name="B"/>'
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex(body))
        assert err.value.code == "duplicate-id"

    # A number that is not finite is refused by ``ProductNode``, as from any source.
    @pytest.mark.parametrize("bad", ["three", "NaN", "inf"])
    def test_a_position_axis_that_is_no_finite_number_is_invalid_position(self, bad):
        body = (
            '<InternalElement ID="a" Name="A"><Attribute Name="Position">'
            f'<Attribute Name="x"><Value>{bad}</Value></Attribute>'
            '<Attribute Name="y"><Value>0</Value></Attribute>'
            '<Attribute Name="z"><Value>0</Value></Attribute>'
            "</Attribute></InternalElement>"
        )
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex(body))
        assert err.value.code == "invalid-position"

    def test_missing_position_axis(self):
        body = (
            '<InternalElement ID="a" Name="A"><Attribute Name="Position">'
            '<Attribute Name="x"><Value>1</Value></Attribute>'
            "</Attribute></InternalElement>"
        )
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex(body))
        assert err.value.code == "invalid-position"

    def test_a_bipan_kind_that_is_no_product_kind_is_a_parse_error(self):
        body = (
            '<InternalElement ID="a" Name="A">'
            '<Attribute Name="BiPanKind"><Value>Widget</Value></Attribute>'
            "</InternalElement>"
        )
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex(body))
        assert err.value.code == "parse-error"

    def test_attribute_without_name_names_element_path(self):
        body = (
            '<InternalElement ID="a" Name="A"><Attribute><Value>x</Value></Attribute>'
            "</InternalElement>"
        )
        with pytest.raises(BiPanError) as err:
            exchange.import_aml(caex(body))
        assert (err.value.code, err.value.detail) == (
            "parse-error",
            "CAEXFile/SystemUnitClassLib 'Lib'/SystemUnitClass 'SUC'/InternalElement 'A': "
            "Attribute lacks a Name",
        )

    def test_attribute_without_value_is_empty(self):
        body = '<InternalElement ID="a" Name="A"><Attribute Name="colour"/></InternalElement>'
        (product,) = exchange.import_aml(caex(body)).products
        assert product.attributes == {"colour": ""}

    def test_nested_elements_flatten_with_parent(self):
        body = (
            '<InternalElement ID="pack" Name="Pack">'
            '<InternalElement ID="cell" Name="Cell">'
            '<InternalElement ID="tab" Name="Tab"/>'
            "</InternalElement></InternalElement>"
        )
        fragment = exchange.import_aml(caex(body))
        by_id = {p.id: p for p in fragment.products}
        assert set(by_id) == {"pack", "cell", "tab"}
        assert "parent" not in by_id["pack"].attributes
        assert by_id["cell"].attributes["parent"] == "pack"
        assert by_id["tab"].attributes["parent"] == "cell"

    def test_deep_nesting_keeps_pre_order(self):
        depth = 3000
        body = "".join(
            f'<InternalElement ID="e{i}"><InternalElement ID="s{i}"/>' for i in range(depth)
        )
        fragment = exchange.import_aml(caex(body + "</InternalElement>" * depth))
        expected = [pid for i in range(depth) for pid in (f"e{i}", f"s{i}")]
        assert [p.id for p in fragment.products] == expected
        by_id = {p.id: p for p in fragment.products}
        assert by_id[f"e{depth - 1}"].attributes["parent"] == f"e{depth - 2}"
        assert by_id[f"s{depth - 1}"].attributes["parent"] == f"e{depth - 1}"


class TestMerge:
    def test_fills_positions_without_touching_topology(self, f1, fixtures_dir):
        fragment = exchange.import_aml((fixtures_dir / "battery.aml").read_bytes())
        merged = exchange.merge(fragment, f1)
        assert merged.flows == f1.flows
        assert merged.processes == f1.processes
        assert merged.skill_edges == f1.skill_edges
        assert len(merged.products) == len(f1.products)
        positioned = {p.id for p in merged.products if p.position is not None}
        assert positioned == {f"mod{i}" for i in range(1, 9)}

    def test_empty_fragment_is_identity(self, f1):
        assert exchange.merge(exchange.AmlFragment(()), f1) == f1

    def test_unmatched_products_are_added(self, f1):
        fragment = exchange.import_aml(
            caex('<InternalElement ID="spare_fuse" Name="Spare fuse"/>')
        )
        merged = exchange.merge(fragment, f1)
        assert merged.product("spare_fuse").kind is ProductKind.ELEMENTARY
        assert len(merged.products) == len(f1.products) + 1

    def test_kind_conflict(self, f1):
        body = (
            '<InternalElement ID="box" Name="Battery box">'
            '<Attribute Name="BiPanKind"><Value>Fastener</Value></Attribute>'
            "</InternalElement>"
        )
        with pytest.raises(BiPanError) as err:
            exchange.merge(exchange.import_aml(caex(body)), f1)
        assert err.value.code == "kind-conflict"
        assert err.value.nodes == ("box",)

    def test_implicit_kind_never_conflicts(self, f1):
        # cables is SubProduct in the model; the fragment's default Elementary is silent.
        fragment = exchange.import_aml(caex('<InternalElement ID="cables" Name="Cables"/>'))
        merged = exchange.merge(fragment, f1)
        assert merged.product("cables").kind is ProductKind.SUB_PRODUCT

    def test_label_conflict(self, f1):
        fragment = exchange.import_aml(caex('<InternalElement ID="box" Name="Crate"/>'))
        with pytest.raises(BiPanError) as err:
            exchange.merge(fragment, f1)
        assert err.value.code == "label-conflict"
        assert err.value.nodes == ("box",)
