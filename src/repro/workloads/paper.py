"""The paper's figure schemas, constraints and sample instances.

Everything here is transcribed from the figures of Bernstein & Melnik
(SIGMOD 2007):

* **Figure 2** — mapping constraints between an ER is-a hierarchy
  (Person ⊇ Employee, Customer) and relational tables HR, Empl,
  Client, expressed as equalities of queries;
* **Figure 3** — the query implied by those constraints that populates
  the Persons entity set (TransGen's expected output shape);
* **Figure 4** — the Empl/Addr ↔ Staff snowflake whose correspondences
  have an unambiguous interpretation as projection-join equalities;
* **Figure 6** — the Students-view evolution scenario used to motivate
  composition.
"""

from __future__ import annotations

from repro.algebra import (
    Col,
    Distinct,
    EntityScan,
    Extend,
    IsOf,
    Lit,
    Or,
    Project,
    Scan,
    Select,
    UnionAll,
    eq,
    ne,
    project_names,
)
from repro.instances.database import Instance
from repro.mappings.correspondence import CorrespondenceSet
from repro.mappings.mapping import EqualityConstraint, Mapping
from repro.metamodel import INT, STRING, DATE, SchemaBuilder, Schema


# ----------------------------------------------------------------------
# Figure 2: ER hierarchy ↔ relational tables
# ----------------------------------------------------------------------
def figure2_er_schema() -> Schema:
    """The ER side: Person with Employee and Customer specializations."""
    return (
        SchemaBuilder("PersonsER", metamodel="er")
        .entity("Person", key=["Id"])
        .attribute("Id", INT)
        .attribute("Name", STRING)
        .entity("Employee", parent="Person")
        .attribute("Dept", STRING)
        .entity("Customer", parent="Person")
        .attribute("CreditScore", INT)
        .attribute("BillingAddr", STRING)
        .disjoint("Employee", "Customer")
        .build()
    )


def figure2_sql_schema() -> Schema:
    """The relational side: dbo.HR, dbo.Empl, dbo.Client."""
    return (
        SchemaBuilder("dbo", metamodel="relational")
        .entity("HR", key=["Id"])
        .attribute("Id", INT)
        .attribute("Name", STRING)
        .entity("Empl", key=["Id"])
        .attribute("Id", INT)
        .attribute("Dept", STRING)
        .entity("Client", key=["Id"])
        .attribute("Id", INT)
        .attribute("Name", STRING)
        .attribute("Score", INT)
        .attribute("Addr", STRING)
        .foreign_key("Empl", ["Id"], "HR", ["Id"])
        .build()
    )


def figure2_mapping() -> Mapping:
    """The three equality constraints of Figure 2, verbatim.

    1. ``SELECT Id, Name FROM dbo.HR`` =
       ``SELECT p.Id, p.Name FROM Persons p
         WHERE p IS OF (ONLY Person) OR p IS OF (ONLY Employee)``
    2. ``SELECT Id, Dept FROM dbo.Empl`` =
       ``SELECT e.Id, e.Dept FROM Persons e WHERE e IS OF Employee``
    3. ``SELECT Id, Name, Score, Addr FROM dbo.Client`` =
       ``SELECT c.Id, c.Name, c.CreditScore, c.BillingAddr
         FROM Persons c WHERE c IS OF Customer``
    """
    sql = figure2_sql_schema()
    er = figure2_er_schema()
    c1 = EqualityConstraint(
        source_expr=project_names(Scan("HR"), ["Id", "Name"]),
        target_expr=Project(
            Select(
                EntityScan("Person"),
                Or(IsOf("Person", only=True), IsOf("Employee", only=True)),
            ),
            [("Id", Col("Id")), ("Name", Col("Name"))],
        ),
        name="HR=Person∪Employee",
    )
    c2 = EqualityConstraint(
        source_expr=project_names(Scan("Empl"), ["Id", "Dept"]),
        target_expr=Project(
            Select(EntityScan("Person"), IsOf("Employee")),
            [("Id", Col("Id")), ("Dept", Col("Dept"))],
        ),
        name="Empl=Employee",
    )
    c3 = EqualityConstraint(
        source_expr=project_names(Scan("Client"), ["Id", "Name", "Score", "Addr"]),
        target_expr=Project(
            Select(EntityScan("Person"), IsOf("Customer")),
            [
                ("Id", Col("Id")),
                ("Name", Col("Name")),
                ("Score", Col("CreditScore")),
                ("Addr", Col("BillingAddr")),
            ],
        ),
        name="Client=Customer",
    )
    return Mapping(sql, er, [c1, c2, c3], name="figure2")


def figure2_sql_instance() -> Instance:
    """Sample relational data consistent with the Figure 2 constraints."""
    db = Instance(figure2_sql_schema())
    db.insert_all(
        "HR",
        [
            {"Id": 1, "Name": "Ann"},     # plain person
            {"Id": 2, "Name": "Bob"},     # employee (also in Empl)
            {"Id": 3, "Name": "Carol"},   # employee
        ],
    )
    db.insert_all(
        "Empl",
        [
            {"Id": 2, "Dept": "Sales"},
            {"Id": 3, "Dept": "Engineering"},
        ],
    )
    db.insert_all(
        "Client",
        [
            {"Id": 4, "Name": "Dave", "Score": 710, "Addr": "12 Elm St"},
            {"Id": 5, "Name": "Eve", "Score": 640, "Addr": "9 Oak Ave"},
        ],
    )
    return db


def figure2_er_instance() -> Instance:
    """The entity-set contents the Figure 3 query should produce from
    :func:`figure2_sql_instance`."""
    db = Instance(figure2_er_schema())
    db.insert_object("Person", Id=1, Name="Ann")
    db.insert_object("Employee", Id=2, Name="Bob", Dept="Sales")
    db.insert_object("Employee", Id=3, Name="Carol", Dept="Engineering")
    db.insert_object(
        "Customer", Id=4, Name="Dave", CreditScore=710, BillingAddr="12 Elm St"
    )
    db.insert_object(
        "Customer", Id=5, Name="Eve", CreditScore=640, BillingAddr="9 Oak Ave"
    )
    return db


# ----------------------------------------------------------------------
# Figure 4: snowflake correspondences
# ----------------------------------------------------------------------
def figure4_source_schema() -> Schema:
    """Empl(EID, Name, Tel, AID) ⋈ Addr(AID, City, Zip)."""
    return (
        SchemaBuilder("EmplDB", metamodel="relational")
        .entity("Empl", key=["EID"])
        .attribute("EID", INT)
        .attribute("Name", STRING)
        .attribute("Tel", STRING)
        .attribute("AID", INT)
        .entity("Addr", key=["AID"])
        .attribute("AID", INT)
        .attribute("City", STRING)
        .attribute("Zip", STRING)
        .foreign_key("Empl", ["AID"], "Addr", ["AID"])
        .build()
    )


def figure4_target_schema() -> Schema:
    """Staff(SID, Name, BirthDate, City)."""
    return (
        SchemaBuilder("StaffDB", metamodel="relational")
        .entity("Staff", key=["SID"])
        .attribute("SID", INT)
        .attribute("Name", STRING)
        .attribute("BirthDate", DATE, nullable=True)
        .attribute("City", STRING)
        .build()
    )


def figure4_correspondences() -> CorrespondenceSet:
    """The arrows of Figure 4: Empl≈Staff (roots), EID≈SID, Name≈Name,
    Addr.City≈Staff.City."""
    correspondences = CorrespondenceSet(
        figure4_source_schema(), figure4_target_schema()
    )
    correspondences.add_pair("Empl", "Staff")
    correspondences.add_pair("Empl.EID", "Staff.SID")
    correspondences.add_pair("Empl.Name", "Staff.Name")
    correspondences.add_pair("Addr.City", "Staff.City")
    return correspondences


def figure4_source_instance() -> Instance:
    db = Instance(figure4_source_schema())
    db.insert_all(
        "Addr",
        [
            {"AID": 10, "City": "Rome", "Zip": "00100"},
            {"AID": 20, "City": "Oslo", "Zip": "0150"},
        ],
    )
    db.insert_all(
        "Empl",
        [
            {"EID": 1, "Name": "Ann", "Tel": "555-1", "AID": 10},
            {"EID": 2, "Name": "Bob", "Tel": "555-2", "AID": 20},
        ],
    )
    return db


# ----------------------------------------------------------------------
# Figure 6: schema evolution via composition
# ----------------------------------------------------------------------
def figure6_view_schema() -> Schema:
    """V: the Students view."""
    return (
        SchemaBuilder("V", metamodel="relational")
        .entity("Students", key=["Name"])
        .attribute("Name", STRING)
        .attribute("Address", STRING)
        .attribute("Country", STRING)
        .build()
    )


def figure6_s_schema() -> Schema:
    """S: Names(SID, Name) and Addresses(SID, Address, Country)."""
    return (
        SchemaBuilder("S", metamodel="relational")
        .entity("Names", key=["SID"])
        .attribute("SID", INT)
        .attribute("Name", STRING)
        .entity("Addresses", key=["SID"])
        .attribute("SID", INT)
        .attribute("Address", STRING)
        .attribute("Country", STRING)
        .foreign_key("Addresses", ["SID"], "Names", ["SID"])
        .build()
    )


def figure6_s_prime_schema() -> Schema:
    """S′: Addresses split into Local (US) and Foreign."""
    return (
        SchemaBuilder("Sprime", metamodel="relational")
        .entity("NamesP", key=["SID"])
        .attribute("SID", INT)
        .attribute("Name", STRING)
        .entity("Local", key=["SID"])
        .attribute("SID", INT)
        .attribute("Address", STRING)
        .entity("Foreign", key=["SID"])
        .attribute("SID", INT)
        .attribute("Address", STRING)
        .attribute("Country", STRING)
        .foreign_key("Local", ["SID"], "NamesP", ["SID"])
        .foreign_key("Foreign", ["SID"], "NamesP", ["SID"])
        .build()
    )


def figure6_map_v_s() -> Mapping:
    """mapV-S: Students = π[Name, Address, Country](Names ⋈ Addresses)."""
    from repro.algebra import eq_join

    view_expr = Distinct(
        project_names(
            eq_join(Scan("Names"), Scan("Addresses"), [("SID", "SID")]),
            ["Name", "Address", "Country"],
        )
    )
    constraint = EqualityConstraint(
        source_expr=Distinct(project_names(Scan("Students"),
                                           ["Name", "Address", "Country"])),
        target_expr=view_expr,
        name="Students-def",
    )
    return Mapping(figure6_view_schema(), figure6_s_schema(), [constraint],
                   name="mapV-S")


def figure6_map_s_sprime() -> Mapping:
    """mapS-S′ exactly as printed in Figure 6::

        Names = Names′
        σ[Country='US'](Addresses) = Local × {'US'}
        σ[Country≠'US'](Addresses) = Foreign
    """
    names_constraint = EqualityConstraint(
        source_expr=project_names(Scan("Names"), ["SID", "Name"]),
        target_expr=project_names(Scan("NamesP"), ["SID", "Name"]),
        name="Names=Names′",
    )
    local_constraint = EqualityConstraint(
        source_expr=project_names(
            Select(Scan("Addresses"), eq(Col("Country"), "US")),
            ["SID", "Address", "Country"],
        ),
        target_expr=project_names(
            Extend(Scan("Local"), "Country", Lit("US")),
            ["SID", "Address", "Country"],
        ),
        name="Local",
    )
    foreign_constraint = EqualityConstraint(
        source_expr=project_names(
            Select(Scan("Addresses"), ne(Col("Country"), "US")),
            ["SID", "Address", "Country"],
        ),
        target_expr=project_names(Scan("Foreign"),
                                  ["SID", "Address", "Country"]),
        name="Foreign",
    )
    return Mapping(
        figure6_s_schema(),
        figure6_s_prime_schema(),
        [names_constraint, local_constraint, foreign_constraint],
        name="mapS-Sprime",
    )


def figure6_s_instance() -> Instance:
    db = Instance(figure6_s_schema())
    db.insert_all(
        "Names",
        [
            {"SID": 1, "Name": "Ann"},
            {"SID": 2, "Name": "Bob"},
            {"SID": 3, "Name": "Chen"},
        ],
    )
    db.insert_all(
        "Addresses",
        [
            {"SID": 1, "Address": "12 Elm St", "Country": "US"},
            {"SID": 2, "Address": "9 Oak Ave", "Country": "US"},
            {"SID": 3, "Address": "5 Rue Neuve", "Country": "FR"},
        ],
    )
    return db


def figure6_s_prime_instance() -> Instance:
    """The migration of :func:`figure6_s_instance` to S′."""
    db = Instance(figure6_s_prime_schema())
    db.insert_all(
        "NamesP",
        [
            {"SID": 1, "Name": "Ann"},
            {"SID": 2, "Name": "Bob"},
            {"SID": 3, "Name": "Chen"},
        ],
    )
    db.insert_all(
        "Local",
        [
            {"SID": 1, "Address": "12 Elm St"},
            {"SID": 2, "Address": "9 Oak Ave"},
        ],
    )
    db.insert_all(
        "Foreign",
        [{"SID": 3, "Address": "5 Rue Neuve", "Country": "FR"}],
    )
    return db


def figure6_composed_view_expr():
    """The composed mapping the paper states:

    ``Students = π[Name, Address, Country](Names′ ⋈ (Local×{'US'} ∪ Foreign))``
    """
    from repro.algebra import eq_join

    addresses = UnionAll(
        Extend(Scan("Local"), "Country", Lit("US")),
        Scan("Foreign"),
    )
    return Distinct(
        project_names(
            eq_join(Scan("NamesP"), addresses, [("SID", "SID")]),
            ["Name", "Address", "Country"],
        )
    )
