package hypbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, lit, monotonically_increasing_id, xxhash64}
import repro.core._
import repro.data.Datasets
import repro.experiments.{EndToEnd, FalseDiscovery}
import scala.util.Random

/** One call into a public entry point: its answer, and the independence
  * tests counted by the configuration the benchmark built for it.
  */
final case class Call(answer: Any, tests: Long)

/** A benchmark workload: the untraced call, the check of its answer
  * against the seed verdict, and the traced replay of the same call.
  */
trait Workload {
  def name: String
  /** Untimed calls before timing; the first call in a fresh JVM is slow. */
  def warmups: Int
  /** Operations one call performs (1 analyze call, or the sweep's queries). */
  def opsPerCall: Int
  def call(): Call
  /** Differences from the seed verdict; empty when the answer is right. */
  def mismatches(answer: Any): Seq[String]
  /** Replays the call through `repro.core`, returning the answer and the
    * per-layer metrics it measured.
    */
  def replay(tracer: Tracer): (Any, Map[String, Double])
}

object Workload {

  /** Every per-layer metric the traced run reports, with its unit. A layer
    * a workload does not exercise reports 0.
    */
  val layerMetrics: Seq[(String, String)] = Seq(
    "contingency.materialize_s" -> "s",
    "contingency.materialize_jobs" -> "count",
    "contingency.cells" -> "count",
    "cd.keylike_probe_s" -> "s",
    "cd.keylike_probe_jobs" -> "count",
    "stats.contingency_calls" -> "count",
    "stats.contingency_s" -> "s",
    "stats.entropy_calls" -> "count",
    "stats.entropy_evals" -> "count",
    "stats.entropy_hit_ratio" -> "ratio",
    "stats.entropy_s" -> "s",
    "markovboundary.calls" -> "count",
    "markovboundary.tests" -> "count",
    "markovboundary.growshrink_s" -> "s",
    "cd.covariates_s" -> "s",
    "cd.tests" -> "count",
    "cd.phases_s" -> "s",
    "hypdb.balance_s" -> "s",
    "hypdb.significance_s" -> "s",
    "hypdb.tests" -> "count",
    "explain.s" -> "s",
    "rewrite.original_s" -> "s",
    "rewrite.total_s" -> "s",
    "rewrite.nde_s" -> "s",
    "rewrite.jobs" -> "count",
    "indeptest.mit_calls" -> "count",
    "indeptest.mit_s" -> "s",
    "indeptest.chi2_calls" -> "count",
    "indeptest.chi2_s" -> "s",
    "rewrite.on_table_s" -> "s",
    "contingency.restrict_s" -> "s",
    "q1.answered" -> "count",
    "spark.jobs" -> "count",
    "spark.tasks" -> "count",
    "spark.busy_s" -> "s",
    "driver.cpu_s" -> "s",
    "jvm.gc_s" -> "s",
    "trace.coverage" -> "ratio",
    "trace.overhead" -> "ratio")

  /** The generated relation with its rows dealt to `parts` partitions by a
    * hash of (row id, seed): the same multiset of rows for every seed, in
    * a seed-dependent layout. Cached and counted.
    */
  def relation(df: DataFrame, seed: Long, parts: Int): DataFrame = {
    val r = df.withColumn("__rid", monotonically_increasing_id())
      .repartition(parts, xxhash64(col("__rid"), lit(seed)))
      .drop("__rid")
      .cache()
    r.count()
    r
  }

  def apply(name: String, spark: SparkSession, seed: Long): Workload = {
    val parts = spark.sparkContext.defaultParallelism
    name match {
      case "flight-analyze" =>
        val df = Datasets.flight(spark, 44000, seed = 11)
          .select(Datasets.flightAttrs.map(col): _*)
        new Analyze(name, relation(df, seed, parts), "Carrier", "Delayed",
          Datasets.flightAttrs, "UA", flightVerdict, warmups = 1)
      case "staples-analyze" =>
        new Analyze(name, relation(Datasets.staples(spark, 400000, seed = 17), seed, parts),
          "Income", "Price", Datasets.staplesAttrs, "low", staplesVerdict, warmups = 2)
      case "q1-sweep" => new Q1Sweep(spark)
      case other => throw new IllegalArgumentException(s"unknown workload $other")
    }
  }

  private def expect(ok: Boolean, what: => String): Seq[String] = if (ok) Nil else Seq(what)

  /** Fig. 1 at seed: Simpson's paradox found, explained and reversed. */
  def flightVerdict(r: HypDB.Report): Seq[String] =
    expect(r.covariates.toSet == Set("Airport", "Year"), s"Z = ${r.covariates}") ++
    expect(r.mediators.toSet == Set("DepTime", "Year"), s"M = ${r.mediators}") ++
    expect(Set("AirportWAC", "FlightNum").subsetOf(r.dropped), s"dropped = ${r.dropped}") ++
    expect(r.biasedTotal(), s"not biased: ${r.biasTotal}") ++
    expect(r.originalAnswers("AA") < r.originalAnswers("UA"),
      s"SQL answer does not favour AA: ${r.originalAnswers}") ++
    expect(r.totalEffect.exists(e => e.answers("AA") > e.answers("UA")),
      s"adjusted answer does not reverse: ${r.totalEffect}")

  /** Fig. 3 (bottom) at seed: Income acts on Price only through Distance. */
  def staplesVerdict(r: HypDB.Report): Seq[String] =
    expect(r.covariates.toSet == Set("Area", "Education"), s"Z = ${r.covariates}") ++
    expect(r.mediators.toSet == Set("Distance"), s"M = ${r.mediators}")
}

/** `HypDB.analyze` with `EndToEnd.defaultConfig` over a cached relation. */
final class Analyze(val name: String, df: DataFrame, t: String, y: String,
                    attrs: Seq[String], baseline: String,
                    verdict: HypDB.Report => Seq[String], val warmups: Int)
    extends Workload {
  val opsPerCall = 1

  // a fresh config per call: Tester seeds its per-test RNG from its
  // counter, so a reused config would change the p-values
  def call(): Call = {
    val cfg = EndToEnd.defaultConfig
    val r   = HypDB.analyze(df, t, y, attrs, baseline, cfg)
    Call(r.copy(timings = Map.empty), cfg.tester.counter.tests + cfg.cd.tester.counter.tests)
  }

  def mismatches(answer: Any): Seq[String] = verdict(answer.asInstanceOf[HypDB.Report])

  private def answersOf(result: DataFrame): Map[String, Double] =
    result.select(col(t).cast("string"), col(s"avg_$y")).collect()
      .map(r => r.getString(0) -> (if (r.isNullAt(1)) Double.NaN else r.getDouble(1)))
      .toMap

  /** `HypDB.analyze`'s steps in its order, each step in a span. */
  def replay(tr: Tracer): (Any, Map[String, Double]) = {
    val cfg = EndToEnd.defaultConfig
    val heDrops = tr.span("cd.keylike_probe", runsJobs = true) {
      CD.highEntropyAttributes(df, attrs.filterNot(a => a == t || a == y))
    }
    val table = tr.span("contingency.materialize", runsJobs = true) {
      MaterializedStats(df, attrs.distinct)
    }
    val stats = new TracedStats(table)
    val mbs   = Seq.fill(2)(new TimingMbCache(cfg.cd.tester))
    val cdTests0 = cfg.cd.tester.counter.tests
    val cdT = tr.span("cd.covariates") {
      CD.covariates(stats, t, y, cfg.cd.copy(mbCache = Some(mbs(0))), heDrops)
    }
    val zs  = cdT.covariates.toSeq.sorted
    val cdY = tr.span("cd.covariates") {
      CD.covariates(stats, y, t, cfg.cd.copy(mbCache = Some(mbs(1))), heDrops)
    }
    val cdTests = cfg.cd.tester.counter.tests - cdTests0
    val ms      = (cdY.covariates - t).toSeq.sorted
    val biasTot = tr.span("hypdb.balance")(HypDB.balanceTest(stats, t, zs, cfg))
    val biasDir = tr.span("hypdb.balance")(HypDB.balanceTest(stats, t, (zs ++ ms).distinct, cfg))

    val origAns = tr.span("rewrite.original", runsJobs = true) {
      answersOf(Rewrite.original(df, t, Nil, Seq(y)))
    }
    val origSig = tr.span("hypdb.significance")(HypDB.effectSignificance(stats, t, y, Nil, cfg))

    val (resp, fine) = tr.span("explain") {
      val v    = (zs ++ ms).distinct
      val resp = if (v.nonEmpty) Explain.responsibilities(stats, t, v) else Nil
      (resp, resp.take(2).map(r =>
        r.attribute -> Explain.fineGrained(stats, t, y, r.attribute, cfg.fineGrainedK)).toMap)
    }

    val totalEff =
      if (zs.isEmpty) None
      else {
        val ans = tr.span("rewrite.total", runsJobs = true) {
          answersOf(Rewrite.total(df, t, Nil, zs, Seq(y)))
        }
        Some(HypDB.Effect(ans,
          tr.span("hypdb.significance")(HypDB.effectSignificance(stats, t, y, zs, cfg))))
      }
    val directEff =
      if (ms.isEmpty) None
      else {
        val ans = tr.span("rewrite.nde", runsJobs = true) {
          answersOf(Rewrite.nde(df, t, baseline, zs.filterNot(ms.contains), ms, Seq(y)))
        }
        Some(HypDB.Effect(ans, tr.span("hypdb.significance") {
          HypDB.effectSignificance(stats, t, y, (zs ++ ms).distinct, cfg)
        }))
      }

    val report = HypDB.Report(t, y, origAns, origSig, zs, ms, cdT.dropped ++ heDrops,
      cdT.usedFallback, biasTot, biasDir, resp, fine, totalEff, directEff)

    val s = tr.seconds
    val growShrink = mbs.map(_.nanos).sum / 1e9
    val layers = Map(
      "contingency.materialize_s"    -> s("contingency.materialize"),
      "contingency.materialize_jobs" -> tr.jobs("contingency.materialize").toDouble,
      "contingency.cells"            -> table.table.distinctCount.toDouble,
      "cd.keylike_probe_s"           -> s("cd.keylike_probe"),
      "cd.keylike_probe_jobs"        -> tr.jobs("cd.keylike_probe").toDouble,
      "stats.contingency_calls"      -> stats.contingencyCalls.toDouble,
      "stats.contingency_s"          -> stats.contingencyNanos / 1e9,
      "stats.entropy_calls"          -> stats.entropyCalls.toDouble,
      "stats.entropy_evals"          -> stats.entropyEvaluations.toDouble,
      "stats.entropy_hit_ratio"      ->
        (if (stats.entropyCalls == 0) 0.0
         else 1.0 - stats.entropyEvaluations.toDouble / stats.entropyCalls),
      "stats.entropy_s"              -> stats.entropyNanos / 1e9,
      "markovboundary.calls"         -> mbs.map(_.misses).sum.toDouble,
      "markovboundary.tests"         -> mbs.map(_.tests).sum.toDouble,
      "markovboundary.growshrink_s"  -> growShrink,
      "cd.covariates_s"              -> s("cd.covariates"),
      "cd.tests"                     -> cdTests.toDouble,
      "cd.phases_s"                  -> (s("cd.covariates") - growShrink),
      "hypdb.balance_s"              -> s("hypdb.balance"),
      "hypdb.significance_s"         -> s("hypdb.significance"),
      "hypdb.tests"                  -> cfg.tester.counter.tests.toDouble,
      "explain.s"                    -> s("explain"),
      "rewrite.original_s"           -> s("rewrite.original"),
      "rewrite.total_s"              -> s("rewrite.total"),
      "rewrite.nde_s"                -> s("rewrite.nde"),
      "rewrite.jobs"                 ->
        Seq("rewrite.original", "rewrite.total", "rewrite.nde").map(tr.jobs).sum.toDouble)
    (report, layers)
  }
}

/** `FalseDiscovery.run` (Fig. 5a): a seeded stream of random WHERE queries
  * over one 200 k-row FlightData summary.
  */
final class Q1Sweep(spark: SparkSession) extends Workload {
  val name       = "q1-sweep"
  val warmups    = 2
  val opsPerCall = 200
  private val rows = 200000L
  private val (alpha, m, seed) = (0.05, 100, 101L)

  def call(): Call = Call(FalseDiscovery.run(spark, opsPerCall, rows, alpha, m, seed), 0L)

  /** At 200 queries the seed finds 179 significant SQL differences, of
    * which 83 become insignificant and 94 reverse after rewriting.
    */
  def mismatches(answer: Any): Seq[String] = {
    val r = answer.asInstanceOf[FalseDiscovery.Result]
    val got = (r.nSignificant, math.round(r.fracInsignificant * r.nSignificant),
               math.round(r.fracReversed * r.nSignificant))
    if (got == ((179, 83L, 94L))) Nil
    else Seq(s"(significant, became insignificant, reversed) = $got, expected (179, 83, 94)")
  }

  private val covs = Seq("Airport", "Month", "DayOfWeek", "Year")

  private def compoundZ(ct: ContingencyTable, t: String, y: String,
                        zs: Seq[String]): ContingencyTable = {
    val it = ct.attrs.indexOf(t); val iy = ct.attrs.indexOf(y)
    val iz = zs.map(ct.attrs.indexOf)
    ContingencyTable(Vector(t, y, "__Z"),
      ct.counts.groupBy { case (k, _) => Vector(k(it), k(iy), iz.map(k).mkString("|")) }
        .map { case (k, g) => k -> g.values.sum })
  }

  private def frac(cmp: ContingencyTable): Double = {
    val g = cmp.marginal(Seq("__Z")).distinctCount
    if (g <= 32) 1.0 else math.min(1.0, 8.0 * math.log(g.toDouble) / g)
  }

  /** `FalseDiscovery.run`'s query stream, drawn from the same RNG in the
    * same order, with each table operation, rewrite and test in a span.
    */
  def replay(tr: Tracer): (Any, Map[String, Double]) = {
    val ct = tr.span("contingency.materialize", runsJobs = true) {
      Contingency.fromDf(Datasets.flight(spark, rows, seed = 11),
                         Seq("Carrier", "Delayed") ++ covs)
    }
    val rng      = new Random(seed)
    val airports = Datasets.flightAirports
    val months   = (1 to 12).map(_.toString)
    val years    = (2012 to 2015).map(_.toString)
    def randomSubset[A](xs: Seq[A], minSize: Int): Seq[A] = {
      val k = minSize + rng.nextInt(xs.size - minSize + 1)
      rng.shuffle(xs).take(k)
    }
    def test(method: String)(body: => TestResult): TestResult = tr.span(s"indeptest.$method")(body)

    val outcomes = (1 to opsPerCall).flatMap { _ =>
      val selAirports = randomSubset(airports, 2).toSet
      val selMonths   = randomSubset(months, 3).toSet
      val selYears    = randomSubset(years, 2).toSet
      val sub = tr.span("contingency.restrict") {
        val (iA, iM, iY) =
          (ct.attrs.indexOf("Airport"), ct.attrs.indexOf("Month"), ct.attrs.indexOf("Year"))
        ContingencyTable(ct.attrs, ct.counts.filter { case (k, _) =>
          selAirports(k(iA)) && selMonths(k(iM)) && selYears(k(iY))
        })
      }
      if (sub.n < 500) None
      else {
        val (sql, rw) = tr.span("rewrite.on_table") {
          (Rewrite.originalOnTable(sub, "Carrier", "Delayed"),
           Rewrite.totalOnTable(sub, "Carrier", covs, "Delayed"))
        }
        if (!sql.contains("AA") || !sql.contains("UA") ||
            !rw.contains("AA") || !rw.contains("UA")) None
        else {
          val rngT = new Random(rng.nextLong())
          val marg = tr.span("contingency.restrict")(sub.marginal(Seq("Carrier", "Delayed")))
          val sqlSig = test("mit") {
            IndepTest.mitOnTable(marg, "Carrier", "Delayed", Nil, m, rngT)
          }.pValue <= alpha
          val (cmp, dfree) = tr.span("contingency.restrict") {
            val cmp = compoundZ(sub, "Carrier", "Delayed", covs)
            (cmp, cmp.marginal(Seq("__Z")).distinctCount.toLong)
          }
          val rwSig = (if (dfree <= cmp.n / 5)
              test("chi2")(IndepTest.chi2OnTable(cmp, "Carrier", "Delayed", Seq("__Z")))
            else {
              val gf = tr.span("contingency.restrict")(frac(cmp))
              test("mit")(IndepTest.mitOnTable(cmp, "Carrier", "Delayed", Seq("__Z"),
                                               m, rngT, groupFraction = gf))
            }).pValue <= alpha
          Some(FalseDiscovery.Outcome(sql("AA") - sql("UA"), rw("AA") - rw("UA"),
                                      sqlSig, rwSig))
        }
      }
    }

    val s = tr.seconds
    val layers = Map(
      "contingency.materialize_s"    -> s("contingency.materialize"),
      "contingency.materialize_jobs" -> tr.jobs("contingency.materialize").toDouble,
      "contingency.cells"            -> ct.distinctCount.toDouble,
      "indeptest.mit_calls"          -> tr.calls("indeptest.mit").toDouble,
      "indeptest.mit_s"              -> s("indeptest.mit"),
      "indeptest.chi2_calls"         -> tr.calls("indeptest.chi2").toDouble,
      "indeptest.chi2_s"             -> s("indeptest.chi2"),
      "rewrite.on_table_s"           -> s("rewrite.on_table"),
      "contingency.restrict_s"       -> s("contingency.restrict"),
      "q1.answered"                  -> outcomes.size.toDouble)
    (FalseDiscovery.Result(outcomes), layers)
  }
}
