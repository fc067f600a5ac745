"""Appliance images: package bundles built on demand."""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

from repro.errors import ApplianceError
from repro.units import MB

__all__ = ["Package", "ApplianceImage", "ImageBuilder", "ONSERVE_PACKAGES"]


class Package:
    """One software component bundled into an appliance image."""

    __slots__ = ("name", "version", "size_bytes", "boot_seconds",
                 "boot_cpu_seconds", "depends_on")

    def __init__(self, name: str, version: str, size_bytes: float,
                 boot_seconds: float = 1.0, boot_cpu_seconds: float = 0.5,
                 depends_on: Sequence[str] = ()):
        if size_bytes < 0 or boot_seconds < 0 or boot_cpu_seconds < 0:
            raise ApplianceError(f"package {name!r}: negative sizing")
        self.name = name
        self.version = version
        self.size_bytes = size_bytes
        self.boot_seconds = boot_seconds
        self.boot_cpu_seconds = boot_cpu_seconds
        self.depends_on = tuple(depends_on)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<Package {self.name}-{self.version}>"


class ApplianceImage:
    """A built image: ordered packages + identity."""

    def __init__(self, name: str, packages: List[Package]):
        self.name = name
        self.packages = list(packages)
        digest = hashlib.sha256(
            ";".join(f"{p.name}-{p.version}" for p in packages).encode()
        ).hexdigest()
        self.image_id = f"img-{digest[:12]}"

    @property
    def size_bytes(self) -> float:
        base_os = MB(120)  # the "minimal Linux base" every appliance ships
        return base_os + sum(p.size_bytes for p in self.packages)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"<ApplianceImage {self.name!r} {self.image_id}>"


class ImageBuilder:
    """The rBuilder stand-in: resolve dependencies, order boot sequence."""

    def __init__(self) -> None:
        self._available: Dict[str, Package] = {}

    def provide(self, package: Package) -> None:
        """Add *package* to the builder's repository."""
        self._available[package.name] = package

    def build(self, name: str, package_names: Sequence[str]) -> ApplianceImage:
        """Build an image containing *package_names* (plus dependencies).

        Packages boot in dependency order; cycles and unknown packages
        raise :class:`ApplianceError`.
        """
        ordered: List[Package] = []
        seen: Dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(pkg_name: str, chain: Tuple[str, ...]) -> None:
            state = seen.get(pkg_name)
            if state == 1:
                return
            if state == 0:
                raise ApplianceError(
                    f"dependency cycle: {' -> '.join(chain + (pkg_name,))}")
            pkg = self._available.get(pkg_name)
            if pkg is None:
                raise ApplianceError(f"no such package {pkg_name!r}")
            seen[pkg_name] = 0
            for dep in pkg.depends_on:
                visit(dep, chain + (pkg_name,))
            seen[pkg_name] = 1
            ordered.append(pkg)

        for pkg_name in package_names:
            visit(pkg_name, ())
        if not ordered:
            raise ApplianceError("an image needs at least one package")
        return ApplianceImage(name, ordered)


def ONSERVE_PACKAGES() -> List[Package]:
    """The package set of the Cyberaide onServe appliance (§V/§VI)."""
    return [
        Package("jre", "1.6", MB(90), boot_seconds=0.0),
        Package("tomcat", "6.0", MB(12), boot_seconds=6.0,
                depends_on=("jre",)),
        Package("axis2", "1.5", MB(20), boot_seconds=2.0,
                depends_on=("tomcat",)),
        Package("mysql", "5.1", MB(35), boot_seconds=3.0),
        Package("juddi", "2.0", MB(8), boot_seconds=1.5,
                depends_on=("tomcat", "mysql")),
        Package("cyberaide-toolkit", "0.9", MB(15), boot_seconds=1.0,
                depends_on=("jre",)),
        Package("cyberaide-onserve", "1.0", MB(5), boot_seconds=1.0,
                depends_on=("axis2", "juddi", "mysql", "cyberaide-toolkit")),
    ]
