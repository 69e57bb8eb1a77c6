"""The result records are named tuples: importing the CLI generates no
dataclass code, and every record is immutable, with the Name(field=value, ...)
repr that error messages embed."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import quantic
from quantic.errors import UndecidableFamily
from quantic.lazy import ChainOmega, TailFamily, TruncationFamily, UPSet, UpsetsNat


def record_classes():
    """Every class defined in a quantic module with named-tuple or dataclass
    fields."""
    found = {}
    for info in pkgutil.iter_modules(quantic.__path__):
        module = importlib.import_module(f"quantic.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                if hasattr(value, "_fields") or hasattr(value, "__dataclass_fields__"):
                    found[value.__qualname__] = value
    return [found[name] for name in sorted(found)]


RECORDS = record_classes()


def modules_after(statement: str) -> set:
    src = os.path.dirname(os.path.dirname(quantic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = f"{statement}import sys; print('\\n'.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(proc.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    bare = modules_after("")
    cli = modules_after("import quantic.cli; ")
    assert "quantic.cli" in cli
    assert not {"dataclasses", "inspect"} & (cli - bare)


def test_the_records_are_the_24_result_classes():
    assert len(RECORDS) == 24
    assert [cls for cls in RECORDS if hasattr(cls, "__dataclass_fields__") or not issubclass(cls, tuple)] == []


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_immutable_with_a_named_repr(cls):
    values = [f"v{i}" for i in range(len(cls._fields))]
    record = cls(*values)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == cls(*values) and hash(record) == hash(cls(*values))
    fields = ", ".join(f"{field}={value!r}" for field, value in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({fields})"


def test_a_lazy_refusal_embeds_the_family_repr():
    with pytest.raises(UndecidableFamily, match=r"^upsets-nat cannot take the sup of TailFamily\(start=3\)$"):
        UpsetsNat().sup(TailFamily(3))
    with pytest.raises(UndecidableFamily, match=r"^chain-omega cannot take the sup of TruncationFamily\(limit=UPSet\{\}\)$"):
        ChainOmega().sup(TruncationFamily(UPSet.empty()))
