package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.scheduler._

/** Spark work attributed to one job group (`op/layer` in a traced run). */
final class SparkWork {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var taskMs = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L

  def toMap: Map[String, Long] = Map("jobs" -> jobs, "stages" -> stages, "tasks" -> tasks, "task_ms" -> taskMs,
    "shuffle_read_bytes" -> shuffleReadBytes, "shuffle_write_bytes" -> shuffleWriteBytes)

  def +=(o: SparkWork): Unit = {
    jobs += o.jobs; stages += o.stages; tasks += o.tasks; taskMs += o.taskMs
    shuffleReadBytes += o.shuffleReadBytes; shuffleWriteBytes += o.shuffleWriteBytes
  }
}

/** Counts Spark jobs, submitted stages, finished tasks, executor run time
  * and shuffle bytes per job group. Jobs started outside any group land in
  * the group `""`. Read it only after [[drain]].
  */
final class Meter extends SparkListener {
  private val byGroup = new ConcurrentHashMap[String, SparkWork]()
  private val stageGroup = new ConcurrentHashMap[Int, String]()

  private def work(group: String): SparkWork = byGroup.computeIfAbsent(group, _ => new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
    work(group).jobs += 1
    e.stageIds.foreach(stageGroup.put(_, group))
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    work(stageGroup.getOrDefault(e.stageInfo.stageId, "")).stages += 1

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val w = work(stageGroup.getOrDefault(e.stageId, ""))
    w.tasks += 1
    val m = e.taskMetrics
    if (m != null) {
      w.taskMs += m.executorRunTime
      w.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
      w.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  def drain(sc: org.apache.spark.SparkContext): Unit = org.apache.spark.BusDrain(sc)

  def group(g: String): SparkWork = Option(byGroup.get(g)).getOrElse(new SparkWork)

  def totalJobs: Long = {
    var n = 0L
    byGroup.values().forEach(w => n += w.jobs)
    n
  }
}
