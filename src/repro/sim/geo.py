"""Synthetic geographic / autonomous-system registry.

The paper maps peer IP addresses to countries and ASNs with a locally
installed MaxMind database (Section 3, Section 5.3.2).  Offline
reproduction needs an equivalent: this module provides a deterministic
registry of countries (with Reporters-Without-Borders press-freedom
scores), autonomous systems, and IPv4/IPv6 prefixes, calibrated so that the
geographic shape of the synthetic population matches Figures 10–12:

* the United States hosts the largest share of peers, and the top six
  countries (US, RU, GB, FR, CA, AU) contribute more than 40 %;
* the top-20 countries cover roughly 60 % of peers, the remainder being
  spread across ~200 other countries;
* roughly thirty countries with poor press-freedom scores (>50) contribute
  a combined ~19 % of the *daily* population is not required — the paper
  reports ≈6K unique peers over the campaign, dominated by China, then
  Singapore and Turkey;
* each country's peers concentrate in a handful of residential ASes, with
  AS7922 (Comcast) the single largest origin.

The registry is also the *inverse* mapping used by analysis code: given an
IP it returns country and ASN without any network access, mirroring the
paper's offline MaxMind usage.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .addresses import IPV6_KEY_BASE

__all__ = [
    "Country",
    "AutonomousSystem",
    "GeoRegistry",
    "PRESS_FREEDOM_HIDDEN_THRESHOLD",
    "default_registry",
]

#: Press-freedom score above which the I2P router defaults to hidden mode
#: (Section 5.1: countries "with poor Press Freedom scores (i.e., greater
#: than 50)" default to hidden).
PRESS_FREEDOM_HIDDEN_THRESHOLD = 50.0


@dataclass(frozen=True)
class Country:
    """A country participating in the synthetic population."""

    code: str
    name: str
    weight: float
    press_freedom_score: float

    @property
    def poor_press_freedom(self) -> bool:
        return self.press_freedom_score > PRESS_FREEDOM_HIDDEN_THRESHOLD


@dataclass(frozen=True)
class AutonomousSystem:
    """An autonomous system: number, operator name, country, peer weight."""

    asn: int
    name: str
    country_code: str
    weight: float
    ipv4_prefix: Tuple[int, int]  # (first octet, second octet) of a /16
    supports_ipv6: bool = False

    def ipv4_for(self, host_index: int) -> str:
        """A deterministic IPv4 address inside this AS's /16."""
        third = (host_index // 254) % 254 + 1
        fourth = host_index % 254 + 1
        return f"{self.ipv4_prefix[0]}.{self.ipv4_prefix[1]}.{third}.{fourth}"

    def ipv6_for(self, host_index: int) -> str:
        """A deterministic IPv6 address inside a synthetic /32 for this AS."""
        return f"2a{self.asn % 16:01x}:{self.asn & 0xFFFF:x}::{host_index & 0xFFFF:x}"

    def ipv4_key(self, host_index: int) -> int:
        """The integer key of :meth:`ipv4_for`'s address (its 32-bit value)."""
        third = (host_index // 254) % 254 + 1
        fourth = host_index % 254 + 1
        first, second = self.ipv4_prefix
        return first << 24 | second << 16 | third << 8 | fourth

    def ipv6_key(self, host_index: int) -> int:
        """The integer key of :meth:`ipv6_for`'s address (see
        :mod:`repro.sim.addresses`)."""
        return IPV6_KEY_BASE | (self.asn & 0xFFFF) << 16 | (host_index & 0xFFFF)


# --------------------------------------------------------------------------- #
# Calibration tables
# --------------------------------------------------------------------------- #
# Top-20 countries of Figure 10, weights chosen so the top six exceed 40 %
# of the population and the top twenty land near 60–65 %.
_TOP20_COUNTRIES: List[Tuple[str, str, float, float]] = [
    # code, name, population weight, RSF press-freedom score (2018-ish)
    ("US", "United States", 0.2250, 23.7),
    ("RU", "Russia", 0.0820, 49.9),
    ("GB", "United Kingdom", 0.0545, 23.3),
    ("FR", "France", 0.0460, 21.9),
    ("CA", "Canada", 0.0395, 15.3),
    ("AU", "Australia", 0.0340, 14.5),
    ("DE", "Germany", 0.0300, 14.4),
    ("NL", "Netherlands", 0.0240, 10.0),
    ("BR", "Brazil", 0.0210, 31.3),
    ("IT", "Italy", 0.0200, 24.1),
    ("ES", "Spain", 0.0180, 20.1),
    ("IN", "India", 0.0170, 43.2),
    ("CN", "China", 0.0160, 78.3),
    ("JP", "Japan", 0.0150, 28.6),
    ("UA", "Ukraine", 0.0140, 32.9),
    ("SE", "Sweden", 0.0130, 8.3),
    ("BE", "Belgium", 0.0120, 13.2),
    ("CH", "Switzerland", 0.0110, 11.3),
    ("PL", "Poland", 0.0110, 26.6),
    ("ZA", "South Africa", 0.0100, 20.1),
]

# Countries with poor press-freedom scores (>50); the paper observes ~30 of
# them contributing about 6K unique peers over the campaign, led by China,
# Singapore, and Turkey.  China already appears in the top-20 table.
_POOR_PRESS_FREEDOM_COUNTRIES: List[Tuple[str, str, float, float]] = [
    ("SG", "Singapore", 0.0060, 50.9),
    ("TR", "Turkey", 0.0050, 52.9),
    ("BY", "Belarus", 0.0030, 51.7),
    ("VN", "Vietnam", 0.0028, 75.1),
    ("IR", "Iran", 0.0026, 64.4),
    ("SA", "Saudi Arabia", 0.0024, 61.0),
    ("EG", "Egypt", 0.0022, 56.5),
    ("PK", "Pakistan", 0.0020, 51.3),
    ("KZ", "Kazakhstan", 0.0018, 54.0),
    ("AZ", "Azerbaijan", 0.0016, 59.1),
    ("TH", "Thailand", 0.0016, 53.6),
    ("MY", "Malaysia", 0.0015, 50.7),
    ("AE", "United Arab Emirates", 0.0014, 58.8),
    ("BH", "Bahrain", 0.0012, 61.2),
    ("IQ", "Iraq", 0.0012, 55.5),
    ("LY", "Libya", 0.0010, 56.8),
    ("YE", "Yemen", 0.0010, 65.8),
    ("SD", "Sudan", 0.0010, 71.4),
    ("ET", "Ethiopia", 0.0010, 69.6),
    ("CU", "Cuba", 0.0009, 68.9),
    ("VE", "Venezuela", 0.0009, 51.4),
    ("RW", "Rwanda", 0.0008, 55.1),
    ("BD", "Bangladesh", 0.0008, 55.6),
    ("KH", "Cambodia", 0.0008, 52.6),
    ("LA", "Laos", 0.0007, 66.4),
    ("MM", "Myanmar", 0.0007, 53.9),
    ("TJ", "Tajikistan", 0.0006, 54.3),
    ("TM", "Turkmenistan", 0.0006, 84.2),
    ("UZ", "Uzbekistan", 0.0006, 66.1),
    ("QA", "Qatar", 0.0005, 57.5),
    ("OM", "Oman", 0.0005, 57.9),
]

# A long tail of "other" countries with free-ish press; collectively they
# absorb the remaining population weight.
_OTHER_COUNTRIES: List[Tuple[str, str, float, float]] = [
    ("FI", "Finland", 0.0090, 10.3),
    ("NO", "Norway", 0.0085, 7.6),
    ("DK", "Denmark", 0.0080, 9.9),
    ("AT", "Austria", 0.0078, 13.0),
    ("CZ", "Czechia", 0.0075, 17.0),
    ("PT", "Portugal", 0.0070, 14.2),
    ("GR", "Greece", 0.0065, 30.3),
    ("RO", "Romania", 0.0065, 24.5),
    ("HU", "Hungary", 0.0060, 29.1),
    ("IE", "Ireland", 0.0058, 14.6),
    ("NZ", "New Zealand", 0.0055, 13.0),
    ("MX", "Mexico", 0.0055, 48.9),
    ("AR", "Argentina", 0.0052, 26.0),
    ("CL", "Chile", 0.0050, 22.7),
    ("CO", "Colombia", 0.0048, 41.5),
    ("KR", "South Korea", 0.0048, 23.5),
    ("TW", "Taiwan", 0.0045, 23.4),
    ("HK", "Hong Kong", 0.0045, 29.0),
    ("ID", "Indonesia", 0.0042, 42.0),
    ("PH", "Philippines", 0.0040, 42.5),
    ("IL", "Israel", 0.0040, 32.0),
    ("SK", "Slovakia", 0.0038, 15.5),
    ("BG", "Bulgaria", 0.0036, 35.0),
    ("HR", "Croatia", 0.0035, 29.0),
    ("RS", "Serbia", 0.0034, 31.6),
    ("LT", "Lithuania", 0.0032, 22.0),
    ("LV", "Latvia", 0.0030, 19.0),
    ("EE", "Estonia", 0.0030, 12.0),
    ("SI", "Slovenia", 0.0028, 21.7),
    ("UY", "Uruguay", 0.0026, 16.6),
    ("PE", "Peru", 0.0025, 30.2),
    ("EC", "Ecuador", 0.0024, 32.5),
    ("MA", "Morocco", 0.0022, 43.1),
    ("TN", "Tunisia", 0.0022, 30.9),
    ("KE", "Kenya", 0.0020, 30.8),
    ("NG", "Nigeria", 0.0020, 39.4),
    ("GE", "Georgia", 0.0018, 27.3),
    ("AM", "Armenia", 0.0018, 28.0),
    ("MD", "Moldova", 0.0016, 30.0),
    ("IS", "Iceland", 0.0015, 14.7),
    ("LU", "Luxembourg", 0.0014, 15.7),
    ("CY", "Cyprus", 0.0012, 21.0),
    ("MT", "Malta", 0.0010, 23.4),
    ("LK", "Sri Lanka", 0.0010, 41.4),
    ("NP", "Nepal", 0.0009, 35.0),
    ("BO", "Bolivia", 0.0008, 32.4),
    ("PY", "Paraguay", 0.0008, 33.7),
    ("CR", "Costa Rica", 0.0008, 11.9),
    ("PA", "Panama", 0.0007, 30.6),
    ("DO", "Dominican Republic", 0.0006, 27.9),
]

# A wide long tail of additional countries with small individual weights so
# that the top-20 countries end up covering roughly 60–65 % of the
# population (Figure 10: the top twenty make up "more than 60%", the rest
# coming from ~200 other countries and regions).
_LONG_TAIL_COUNTRIES: List[Tuple[str, str, float, float]] = [
    ("AL", "Albania", 0.0035, 29.9), ("BA", "Bosnia and Herzegovina", 0.0033, 29.3),
    ("MK", "North Macedonia", 0.0030, 36.8), ("ME", "Montenegro", 0.0028, 33.4),
    ("XK", "Kosovo", 0.0026, 30.5), ("GT", "Guatemala", 0.0030, 38.0),
    ("SV", "El Salvador", 0.0028, 30.0), ("HN", "Honduras", 0.0026, 44.0),
    ("NI", "Nicaragua", 0.0024, 40.0), ("JM", "Jamaica", 0.0026, 11.3),
    ("TT", "Trinidad and Tobago", 0.0024, 24.0), ("BS", "Bahamas", 0.0020, 15.0),
    ("BB", "Barbados", 0.0018, 23.0), ("GH", "Ghana", 0.0032, 23.0),
    ("CI", "Ivory Coast", 0.0028, 29.0), ("SN", "Senegal", 0.0026, 24.0),
    ("CM", "Cameroon", 0.0024, 43.0), ("UG", "Uganda", 0.0024, 33.0),
    ("TZ", "Tanzania", 0.0026, 30.0), ("ZM", "Zambia", 0.0022, 36.0),
    ("ZW", "Zimbabwe", 0.0022, 41.0), ("BW", "Botswana", 0.0020, 23.0),
    ("NA", "Namibia", 0.0020, 17.0), ("MZ", "Mozambique", 0.0018, 30.0),
    ("AO", "Angola", 0.0018, 37.0), ("DZ", "Algeria", 0.0028, 43.0),
    ("JO", "Jordan", 0.0026, 42.0), ("LB", "Lebanon", 0.0026, 31.0),
    ("KW", "Kuwait", 0.0024, 34.0), ("MN", "Mongolia", 0.0022, 29.0),
    ("KG", "Kyrgyzstan", 0.0022, 30.0), ("BT", "Bhutan", 0.0016, 31.0),
    ("MV", "Maldives", 0.0016, 35.0), ("FJ", "Fiji", 0.0016, 27.0),
    ("PG", "Papua New Guinea", 0.0016, 24.0), ("BN", "Brunei", 0.0016, 50.0),
    ("MO", "Macao", 0.0018, 30.0), ("PR", "Puerto Rico", 0.0026, 20.0),
    ("GL", "Greenland", 0.0014, 10.0), ("FO", "Faroe Islands", 0.0014, 10.0),
    ("AD", "Andorra", 0.0014, 23.0), ("MC", "Monaco", 0.0014, 22.0),
    ("LI", "Liechtenstein", 0.0014, 17.0), ("SM", "San Marino", 0.0012, 20.0),
    ("JE", "Jersey", 0.0012, 22.0), ("GG", "Guernsey", 0.0012, 22.0),
    ("IM", "Isle of Man", 0.0012, 22.0), ("GI", "Gibraltar", 0.0012, 23.0),
    ("BM", "Bermuda", 0.0012, 20.0), ("KY", "Cayman Islands", 0.0012, 21.0),
    ("VG", "British Virgin Islands", 0.0010, 21.0), ("CW", "Curacao", 0.0010, 20.0),
    ("AW", "Aruba", 0.0010, 20.0), ("SR", "Suriname", 0.0010, 18.0),
    ("GY", "Guyana", 0.0010, 26.0), ("BZ", "Belize", 0.0010, 23.0),
    ("MU", "Mauritius", 0.0014, 27.0), ("SC", "Seychelles", 0.0010, 30.0),
    ("MG", "Madagascar", 0.0012, 27.0), ("RE", "Reunion", 0.0012, 22.0),
    ("NC", "New Caledonia", 0.0010, 24.0), ("PF", "French Polynesia", 0.0010, 24.0),
]
_OTHER_COUNTRIES.extend(_LONG_TAIL_COUNTRIES)

# Autonomous systems per country.  ``weight`` is the share of that
# country's peers originating from the AS; any residual weight falls into a
# synthetic "<CC>-other" AS generated automatically.
_AS_TABLE: List[Tuple[int, str, str, float, Tuple[int, int], bool]] = [
    # United States — Comcast is the single largest origin AS (Figure 11).
    (7922, "Comcast Cable Communications", "US", 0.28, (24, 0), True),
    (7018, "AT&T Services", "US", 0.15, (12, 0), False),
    (701, "Verizon Business", "US", 0.12, (71, 0), False),
    (20115, "Charter Communications", "US", 0.10, (66, 0), False),
    (209, "CenturyLink", "US", 0.08, (65, 0), False),
    (22773, "Cox Communications", "US", 0.06, (68, 0), False),
    # Russia
    (12389, "Rostelecom", "RU", 0.30, (95, 24), False),
    (8402, "Vimpelcom (Beeline)", "RU", 0.18, (95, 28), False),
    (31208, "MegaFon", "RU", 0.12, (95, 32), False),
    (12714, "NetByNet", "RU", 0.08, (95, 36), False),
    # United Kingdom
    (5089, "Virgin Media", "GB", 0.28, (81, 96), False),
    (2856, "British Telecom", "GB", 0.22, (81, 128), True),
    (9009, "M247", "GB", 0.12, (81, 160), True),
    (13285, "TalkTalk", "GB", 0.10, (81, 176), False),
    # France
    (3215, "Orange", "FR", 0.28, (90, 0), True),
    (12322, "Free SAS", "FR", 0.24, (90, 32), True),
    (16276, "OVH", "FR", 0.10, (91, 121), True),
    (15557, "SFR", "FR", 0.14, (90, 64), False),
    # Canada
    (812, "Rogers Communications", "CA", 0.28, (99, 224), False),
    (577, "Bell Canada", "CA", 0.24, (70, 48), False),
    (6327, "Shaw Communications", "CA", 0.18, (70, 64), False),
    # Australia
    (1221, "Telstra", "AU", 0.32, (58, 160), False),
    (4804, "TPG Internet", "AU", 0.20, (58, 104), False),
    (7545, "TPG Telecom", "AU", 0.14, (58, 108), False),
    # Germany
    (3320, "Deutsche Telekom", "DE", 0.30, (79, 192), True),
    (24940, "Hetzner Online", "DE", 0.12, (88, 198), True),
    (8881, "1&1 Versatel", "DE", 0.12, (82, 112), False),
    # Netherlands
    (1136, "KPN", "NL", 0.26, (77, 160), True),
    (60781, "LeaseWeb", "NL", 0.14, (89, 149), True),
    (33915, "Vodafone Libertel", "NL", 0.16, (77, 172), False),
    # Brazil
    (28573, "Claro Brasil", "BR", 0.26, (177, 32), False),
    (27699, "Telefonica Brasil", "BR", 0.22, (177, 64), False),
    (8167, "Oi (Brasil Telecom)", "BR", 0.14, (177, 96), False),
    # Italy
    (3269, "Telecom Italia", "IT", 0.30, (79, 0), False),
    (30722, "Vodafone Italia", "IT", 0.18, (79, 16), False),
    # Spain
    (3352, "Telefonica de Espana", "ES", 0.30, (80, 24), False),
    (12479, "Orange Espagne", "ES", 0.18, (80, 32), False),
    # India
    (9829, "BSNL", "IN", 0.24, (117, 192), False),
    (24560, "Bharti Airtel", "IN", 0.20, (122, 160), False),
    # China
    (4134, "China Telecom (Chinanet)", "CN", 0.34, (114, 80), False),
    (4837, "China Unicom", "CN", 0.26, (123, 112), False),
    (9808, "China Mobile", "CN", 0.12, (112, 0), False),
    # Japan
    (4713, "NTT Communications (OCN)", "JP", 0.26, (153, 128), True),
    (17676, "SoftBank", "JP", 0.20, (126, 0), False),
    # Ukraine
    (6849, "Ukrtelecom", "UA", 0.22, (91, 192), False),
    (25229, "Kyivstar", "UA", 0.18, (91, 196), False),
    # Sweden
    (3301, "Telia Sweden", "SE", 0.28, (78, 64), True),
    (8473, "Bahnhof", "SE", 0.14, (78, 72), True),
    # Belgium
    (5432, "Proximus", "BE", 0.30, (81, 240), False),
    (6848, "Telenet", "BE", 0.22, (84, 192), False),
    # Switzerland
    (3303, "Swisscom", "CH", 0.32, (85, 0), True),
    (6730, "Sunrise", "CH", 0.18, (85, 16), False),
    # Poland
    (5617, "Orange Polska", "PL", 0.28, (83, 0), False),
    (12741, "Netia", "PL", 0.16, (83, 16), False),
    # South Africa
    (3741, "Internet Solutions", "ZA", 0.24, (105, 224), False),
    (37457, "Telkom SA", "ZA", 0.20, (105, 240), False),
    # Singapore / Turkey (leaders of the poor-press-freedom group)
    (4773, "Singtel (MobileOne)", "SG", 0.30, (118, 189), False),
    (9506, "Singtel Fibre", "SG", 0.22, (119, 74), False),
    (9121, "Turk Telekom", "TR", 0.34, (88, 224), False),
    (16135, "Turkcell", "TR", 0.18, (88, 240), False),
    # Miscellaneous hosting providers used by VPN-hopping peers.
    (14061, "DigitalOcean", "US", 0.02, (104, 131), True),
    (16509, "Amazon AWS", "US", 0.02, (52, 0), True),
    (63949, "Linode", "US", 0.01, (45, 33), True),
]


class GeoRegistry:
    """Registry of countries, ASes, and prefix→(country, ASN) resolution."""

    def __init__(
        self,
        countries: Sequence[Country],
        autonomous_systems: Sequence[AutonomousSystem],
    ) -> None:
        if not countries:
            raise ValueError("registry needs at least one country")
        self._countries: Dict[str, Country] = {c.code: c for c in countries}
        self._ases: Dict[int, AutonomousSystem] = {}
        self._ases_by_country: Dict[str, List[AutonomousSystem]] = {}
        for asys in autonomous_systems:
            if asys.country_code not in self._countries:
                raise ValueError(
                    f"AS{asys.asn} references unknown country {asys.country_code}"
                )
            self._ases[asys.asn] = asys
            self._ases_by_country.setdefault(asys.country_code, []).append(asys)

        # Ensure every country has at least one AS: synthesise a residual
        # "<CC>-other" AS holding whatever weight the named ASes leave over.
        next_synthetic_asn = 64512  # private-use ASN range
        prefix_cursor = 0
        for country in countries:
            named = self._ases_by_country.get(country.code, [])
            named_weight = sum(a.weight for a in named)
            residual = max(0.0, 1.0 - named_weight)
            if residual > 1e-9 or not named:
                prefix = (100 + (prefix_cursor // 250) % 120, prefix_cursor % 250)
                prefix_cursor += 1
                synthetic = AutonomousSystem(
                    asn=next_synthetic_asn,
                    name=f"{country.code}-other",
                    country_code=country.code,
                    weight=residual if named else 1.0,
                    ipv4_prefix=prefix,
                    supports_ipv6=False,
                )
                next_synthetic_asn += 1
                self._ases[synthetic.asn] = synthetic
                self._ases_by_country.setdefault(country.code, []).append(synthetic)

        # Prefix → AS lookup table for resolve().
        self._prefix_to_asn: Dict[Tuple[int, int], int] = {}
        for asys in self._ases.values():
            self._prefix_to_asn[asys.ipv4_prefix] = asys.asn

        # Cumulative weights for sampling.
        self._country_codes: List[str] = [c.code for c in countries]
        weights = [c.weight for c in countries]
        total = sum(weights)
        self._country_cumulative: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._country_cumulative.append(acc)

        # NumPy sampling tables, built lazily for the batched bootstrap.
        self._np_country_cum: Optional[np.ndarray] = None
        self._np_as_tables: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._np_joint_table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def countries(self) -> List[Country]:
        return list(self._countries.values())

    @property
    def autonomous_systems(self) -> List[AutonomousSystem]:
        return list(self._ases.values())

    def country(self, code: str) -> Country:
        return self._countries[code]

    def has_country(self, code: str) -> bool:
        return code in self._countries

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        return self._ases[asn]

    def ases_in_country(self, code: str) -> List[AutonomousSystem]:
        return list(self._ases_by_country.get(code, []))

    def poor_press_freedom_countries(self) -> List[Country]:
        return [c for c in self._countries.values() if c.poor_press_freedom]

    # ------------------------------------------------------------------ #
    # Sampling (population generation)
    # ------------------------------------------------------------------ #
    def sample_country(self, rng: random.Random) -> Country:
        """Sample a country according to the calibrated population weights."""
        point = rng.random()
        index = bisect.bisect_left(self._country_cumulative, point)
        index = min(index, len(self._country_codes) - 1)
        return self._countries[self._country_codes[index]]

    def sample_as(self, country_code: str, rng: random.Random) -> AutonomousSystem:
        """Sample an AS within a country according to AS weights."""
        candidates = self._ases_by_country.get(country_code)
        if not candidates:
            raise KeyError(f"no ASes registered for country {country_code}")
        weights = [max(asys.weight, 1e-9) for asys in candidates]
        total = sum(weights)
        point = rng.random() * total
        acc = 0.0
        for asys, weight in zip(candidates, weights):
            acc += weight
            if point <= acc:
                return asys
        return candidates[-1]

    # ------------------------------------------------------------------ #
    # Batched sampling (bootstrap vectorisation)
    # ------------------------------------------------------------------ #
    def sample_country_codes_batch(
        self, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``count`` country codes drawn with one vectorised uniform batch.

        Same marginal distribution as :meth:`sample_country`; part of the
        bootstrap batched-RNG scheme.
        """
        if self._np_country_cum is None:
            self._np_country_cum = np.asarray(self._country_cumulative)
        idx = np.searchsorted(self._np_country_cum, rng.random(count), side="left")
        idx = np.minimum(idx, len(self._country_codes) - 1)
        codes = np.asarray(self._country_codes, dtype=object)
        return codes[idx]

    def _as_table(self, country_code: str) -> Tuple[np.ndarray, np.ndarray]:
        """(asns, cumulative weights) for one country, cached."""
        table = self._np_as_tables.get(country_code)
        if table is None:
            candidates = self._ases_by_country.get(country_code)
            if not candidates:
                raise KeyError(f"no ASes registered for country {country_code}")
            weights = np.asarray([max(a.weight, 1e-9) for a in candidates])
            cumulative = np.cumsum(weights / weights.sum())
            asns = np.asarray([a.asn for a in candidates], dtype=np.int64)
            table = (asns, cumulative)
            self._np_as_tables[country_code] = table
        return table

    def sample_as_batch(
        self, country_codes: Sequence[str], rng: np.random.Generator
    ) -> np.ndarray:
        """One home ASN per country code, batched (grouped by country)."""
        codes = np.asarray(country_codes, dtype=object)
        draws = rng.random(codes.size)
        asns = np.empty(codes.size, dtype=np.int64)
        for code in set(codes.tolist()):
            rows = np.nonzero(codes == code)[0]
            table_asns, cumulative = self._as_table(code)
            idx = np.searchsorted(cumulative, draws[rows], side="left")
            asns[rows] = table_asns[np.minimum(idx, table_asns.size - 1)]
        return asns

    def sample_joint_as_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` ASNs from the joint country × AS distribution.

        Equivalent to sampling a country then an AS within it (the nomad
        hop-pool construction), collapsed into one cumulative table.
        """
        if self._np_joint_table is None:
            asns: List[int] = []
            weights: List[float] = []
            country_total = sum(c.weight for c in self._countries.values())
            for code in self._country_codes:
                p_country = self._countries[code].weight / country_total
                candidates = self._ases_by_country[code]
                as_weights = [max(a.weight, 1e-9) for a in candidates]
                as_total = sum(as_weights)
                for asys, weight in zip(candidates, as_weights):
                    asns.append(asys.asn)
                    weights.append(p_country * weight / as_total)
            weight_array = np.asarray(weights)
            self._np_joint_table = (
                np.asarray(asns, dtype=np.int64),
                np.cumsum(weight_array / weight_array.sum()),
            )
        table_asns, cumulative = self._np_joint_table
        idx = np.searchsorted(cumulative, rng.random(count), side="left")
        return table_asns[np.minimum(idx, table_asns.size - 1)]

    # ------------------------------------------------------------------ #
    # Resolution (the offline MaxMind stand-in)
    # ------------------------------------------------------------------ #
    def resolve(self, ip: str) -> Optional[Tuple[str, int]]:
        """Resolve an IP to ``(country_code, asn)`` or ``None`` if unknown.

        IPv4 resolution uses the /16 prefix; IPv6 resolution parses the
        synthetic AS-derived prefix produced by
        :meth:`AutonomousSystem.ipv6_for`.
        """
        if ":" in ip:
            return self._resolve_ipv6(ip)
        parts = ip.split(".")
        if len(parts) != 4:
            return None
        try:
            prefix = (int(parts[0]), int(parts[1]))
        except ValueError:
            return None
        asn = self._prefix_to_asn.get(prefix)
        if asn is None:
            return None
        asys = self._ases[asn]
        return asys.country_code, asn

    def _resolve_ipv6(self, ip: str) -> Optional[Tuple[str, int]]:
        try:
            groups = ip.split(":")
            asn_part = int(groups[1], 16)
        except (IndexError, ValueError):
            return None
        for asys in self._ases.values():
            if asys.supports_ipv6 and (asys.asn & 0xFFFF) == asn_part:
                return asys.country_code, asys.asn
        return None

    def resolve_country(self, ip: str) -> Optional[str]:
        resolved = self.resolve(ip)
        return resolved[0] if resolved else None

    def resolve_asn(self, ip: str) -> Optional[int]:
        resolved = self.resolve(ip)
        return resolved[1] if resolved else None


def default_registry() -> GeoRegistry:
    """Build the calibrated registry used by all paper-scale experiments."""
    countries = [
        Country(code, name, weight, score)
        for code, name, weight, score in (
            _TOP20_COUNTRIES + _POOR_PRESS_FREEDOM_COUNTRIES + _OTHER_COUNTRIES
        )
    ]
    ases = [
        AutonomousSystem(asn, name, country, weight, prefix, ipv6)
        for asn, name, country, weight, prefix, ipv6 in _AS_TABLE
    ]
    return GeoRegistry(countries, ases)
